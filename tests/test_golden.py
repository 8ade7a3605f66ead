"""Golden bytes: streams, forward values and CLI output files pinned to
exact hashes and hex floats, plus the layer-batched engine checked against
the per-stream composition it replaces.

The pins were recorded with numpy 2.4.6 (Philox4x64-10 and
`Generator.random`'s 53-bit conversion): the stream and forward pins before
stream generation was batched, the BNN-path file pins before the BNN input
vector became a bipolar `Bitstream`, the sweep, bound, energy and
error-profile pins before those paths shared one grid loop, the
`eval --x-bits` pins before a binary network became one packed array, and
the long MUX forward pins before the MUX lottery was drawn in chunks. Any
change that alters a single stream bit, the last bit of a forward value or
one output byte fails here.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__

import scbnn
from scbnn import (
    AccumulationMode,
    Activation,
    Encoding,
    EncodingRangeError,
    ReferenceNetwork,
    ScnnConfig,
    StreamKey,
    activate,
    counting,
    dot_product_sc,
    fit_reference,
    forward_reference,
    forward_scnn,
    forward_scnn_grid,
    make_target,
    sng_encode,
    to_hex_line,
    unit_grid,
)
from scbnn.bitstream import encode_many
from scbnn.cli import main
from scbnn.netcore import network_to_dict, pow2_scale, save_json
from scbnn.theory import _row_statistics

MS = (1, 7, 64, 4097)
STREAM_KEY = StreamKey(0x5CB_2018, "golden", 3, 5)
STREAM_VALUES = {Encoding.UNIPOLAR: 0.3, Encoding.BIPOLAR: -0.35}

#: sha256 of to_hex_line(sng_encode(STREAM_VALUES[enc], M, enc, STREAM_KEY)).
SNG_SHA256 = {
    ("u", 1): "4fc1e8a5190762422fdd58b900013fa8238bdd33edffdfdf4b7a9d99d066ac22",
    ("u", 7): "2a454f115c95de83798901c661e47984ab6ed040f816ddf5ff4ab038de5ebc1c",
    ("u", 64): "69c25c24cdb9429b6a52f78ff3dd5fa92c494f94fc11c9d1c717bc5b063d826b",
    ("u", 4097): "b0842336c90b57451de5fdec9ad45cd323749b654df81334a5bd4a07e91014cb",
    ("b", 1): "61482a99e733b50c56c119b43e12d032daf77e8c305f812954e5536868fa8c66",
    ("b", 7): "84845438583f4bac4ac00814d4addbf610d81424fb63f530de8d2b6bf8758bd2",
    ("b", 64): "d438ec23538dbcf8e1eced04b6fb12218c88d821b2ae6849debc01a18b4fa6d1",
    ("b", 4097): "053bacff95157fe391c3a4f4063c9486f92fd301dde69f234aec4d3432e3134e",
}

#: float.hex of forward_scnn(README sine net, [0.25], ScnnConfig(M, StreamKey(7), mode)).
SINE_FORWARD = {
    ("apc", 1): "-0x1.7545f87dc1ed2p+2",
    ("apc", 7): "0x1.33ec6b2db9980p-4",
    ("apc", 64): "0x1.4982366d9e2f0p-3",
    ("apc", 4097): "0x1.fd7a34e958bbap-1",
    ("mux", 1): "0x1.eb2a09a3a542bp-1",
    ("mux", 7): "-0x1.1d84c54d5a49ap+0",
    ("mux", 64): "-0x1.62c0f7e1b7e50p-4",
    ("mux", 4097): "0x1.04f54f94dab58p+0",
}

#: float.hex of forward_scnn(TWO_INPUT_NET, [0.3, 0.9], ScnnConfig(64, StreamKey(11), mode)).
TWO_INPUT_FORWARD = {
    "apc": "0x1.56894754109d3p+0",
    "mux": "0x1.2d2325ecf5ae3p+1",
}

#: MUX forward values at a stream length that crosses three 2^16-clock
#: selection chunks: float.hex of forward_scnn at LONG_MUX_M with the keys
#: and points of SINE_FORWARD and TWO_INPUT_FORWARD.
LONG_MUX_M = 3 * 2**16 + 5
LONG_MUX_FORWARD = {
    "sine": "0x1.023c9c276bce6p+0",
    "two-input": "0x1.065f84be70bbap+1",
}


#: sha256 of the CLI's BNN-path output files for BNN_NET (see TestBnnPathBytes).
BNN_BINARIZE_SHA256 = "257d7907656ea433f04bc12efb1a5a12d56be5de3d02136e018642570d70342b"
BNN_TO_SCNN_SHA256 = {
    1: "aa4dfd83dcfedc80da3d673dc10589f28d7b8ca2149bf34f6b3b080200a72474",
    3: "4f03d8ad672b7e46cff0f8d2d113ed1c28d4616aaaae9fa2d114a1eca2d0e29a",
    8: "fa1baeee0bb3c2158955329ca6802b259b38c76824ea11fa59c537f5a7ff6891",
    12: "c2172368f6d5852dbec0fec2eb07b360def342862a9889bb99b5452a4f6d09cb",
}
BNN_TO_BNN_SHA256 = {
    1: "065c784250d9ab2889570311e359c7ec0fc23c658d2422e840f5ad05946dfed4",
    3: "55e3269d36056d51edcdc8c76ad0c6e56a9b8b4aa7ac5481f994b19fc4a61c8d",
    8: "7e7a2a0dcbfb6cb1bb60de455a70ea8f09f9f5d0c981f63d83f6cd78ab1b83f7",
    12: "d7635d10c7a2d7927e207e6f20e8a3ac4db4db33ce88256ca2e581f7bbafb01f",
}
#: BNN preactivation and SC total of each unit that `convert --to-scnn M`
#: prints for its keyed input vector, which reaches no output file.
BNN_TO_SCNN_UNITS = {
    1: ((7, 16), (-3, 11), (1, 13), (-1, 12), (-3, 11)),
    3: ((7, 18), (-3, 13), (1, 15), (-1, 14), (-3, 11)),
    8: ((7, 23), (-3, 18), (1, 20), (-1, 19), (-3, 11)),
    12: ((7, 27), (-3, 22), (1, 24), (-1, 23), (-3, 11)),
}
#: stdout of `eval --x-bits` on BNN_EVAL's keyed binary net, per activation.
BNN_EVAL_STDOUT = {
    "sigmoid": "bnn -0.4959457056356692\n",
    "tanh": "bnn -1.6081208988497155\n",
    "relu": "bnn 3.9249166144947822\n",
}
#: sha256 of network.json from `scbnn fit --target sine --seed 2`.
FIT_SINE_SHA256 = "2668a9dc78b685112cf06223a1ecf67dddef76c9e72df108ac30c5909a8847c0"

#: sha256 of the sweep files for the acceptance-C9 config (see TestExperimentBytes).
SWEEP_C9_SHA256 = {
    "apc": {
        "sweep.csv": "e97bfdab3f07216217800c991d04865b5aff1ba92fcfe340fded72d16668e4aa",
        "sweep_summary.json": "7d292597ac5dfa4a7ba8f6d30d21d343b0bb13f38a3c2603b8b035078c21fb40",
    },
    "mux": {
        "sweep.csv": "85b4f6d7fe4a9c8193df625bdb664252991e36f447a95cbdb6ff84e30a88b442",
        "sweep_summary.json": "1f80ccb1aa2ebc23abd828b64569ad92d60cb423c7c1a569be5f2f8e85f4267e",
    },
}
#: sha256 of bound_report.json from `bound --validate --mode mux --alpha-sum 0.75`
#: on a linear N=2 net (sum |alpha| = 0.713): M=51, 35 samples, failure rate
#: 0.4286 (zero failures would not show a miscounted failure).
BOUND_MUX_SHA256 = "34ee88328f1385a3215d7df56ce84ef12c3d6237d1e0806bb5f30e29897ab0ff"
#: sha256 of energy.json from `energy --n 4 --M 64 --N 8 --mode apc`
#: and `energy --bnn --m 256 --N 8 --mode mux`.
ENERGY_SHA256 = {
    "layer-apc": "206620578fae5e966a1c1f3e4ed2db2b5c394eb79415a294c872c63ca7a30adb",
    "bnn-mux": "cb59f26adb7e4e6d0e421577a8ec7b632ce50deb2cd7f9f6dc45e4342de8d046",
}
ENERGY_ARGV = {
    "layer-apc": ["--n", "4", "--M", "64", "--N", "8", "--mode", "apc"],
    "bnn-mux": ["--bnn", "--m", "256", "--N", "8", "--mode", "mux"],
}
#: float.hex of |G_SC - G| for forward_scnn_grid(C9 sine net, unit_grid(1, 5),
#: ScnnConfig(64, StreamKey(21), MUX)), and its row statistics against the
#: net and sine (the failure rate aside).
PROFILE_VS_REFERENCE = [
    "0x1.43ab4cfe9c3f9p-1",
    "0x1.e90755351f396p+1",
    "0x1.88fe016d416fep+0",
    "0x1.149ee25de27a7p+2",
    "0x1.e6f2741a085fdp+0",
]
PROFILE_SUMMARY = {
    "max_vs_reference": "0x1.149ee25de27a7p+2",
    "median_vs_reference": "0x1.e6f2741a085fdp+0",
    "rms_vs_reference": "0x1.687627c151ebap+1",
    "max_vs_target": "0x1.1385617f987a1p+2",
    "median_vs_target": "0x1.ee9bb9bf01c74p+0",
    "rms_vs_target": "0x1.682d5f10581b0p+1",
}

#: The platform the pins were recorded on: sha256 of np.tanh and np.exp over
#: PLATFORM_GRID, and of the weights of one canonical fit (see
#: `platform_digests`). The pins hold only where numpy and OpenBLAS pick
#: kernels that give these bytes; a failing test here names the digests that
#: differ (tests/conftest.py).
PLATFORM_GRID = np.linspace(-8.0, 8.0, 200_001)
PLATFORM_SHA256 = {
    "tanh": "471b019f3b2d8c00862905085aec7a6b2e894c7f99334ba840cd3d9977de5e1c",
    "exp": "bbebb13eb01d6d9a04b81a33a1b4d22426af2cee43e4e9c2ca574c2867ca035b",
    "fit": "82e81cd992fa3980d42baa018a141caff824b23561976ebe795475686ce7640e",
}
#: numpy's SIMD baseline and dispatch targets where the pins were recorded, for the record.
PLATFORM_CPU = {"baseline": ["X86_V2"], "dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}


def platform_digests() -> dict[str, str]:
    """This host's values of PLATFORM_SHA256. The fit is the C9 sine net of
    `test_error_profile`: its output weights come from BLAS and LAPACK."""
    net = fit_reference(make_target("sine", 1), 8, unit_grid(1, 64), StreamKey(6))
    data = {
        "tanh": np.tanh(PLATFORM_GRID).tobytes(),
        "exp": np.exp(PLATFORM_GRID).tobytes(),
        "fit": b"".join(a.tobytes() for a in (net.hidden_weights, net.hidden_biases, net.output_weights)),
    }
    return {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}


def platform_note() -> str:
    """Which platform digests differ from the pins', if any, and numpy's SIMD targets here and there."""
    here = platform_digests()
    differ = [name for name in PLATFORM_SHA256 if here[name] != PLATFORM_SHA256[name]]
    cpu = f"numpy baseline {__cpu_baseline__}, dispatch {__cpu_dispatch__} (pins: {PLATFORM_CPU})"
    if differ:
        return f"platform digests differ from the pins': {', '.join(differ)}; {cpu}"
    return f"platform digests match the pins' (tanh, exp, fit); {cpu}"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _net(W, b, a, activation=Activation.TANH) -> ReferenceNetwork:
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.asarray(b, dtype=float)
    scale = pow2_scale(max(np.abs(W).max(), np.abs(b).max()))
    return ReferenceNetwork(W, b, np.asarray(a, dtype=float), activation, scale)


TWO_INPUT_NET = _net([[1.5, -0.25], [-0.75, 2.0], [0.125, 0.5]], [0.5, -3.0, 1.25], [0.8, -1.1, 0.6])


def readme_sine_net() -> ReferenceNetwork:
    # The README's `scbnn fit --target sine --N 32 --seed 2 --edge-fraction
    # 0.75 --noise-penalty 0.01`.
    return fit_reference(
        make_target("sine", 1), 32, unit_grid(1, None), StreamKey(2),
        edge_fraction=0.75, noise_penalty=0.01,
    )


@pytest.fixture(scope="module")
def sine_net():
    return readme_sine_net()


def scalar_forward(net, x, cfg):
    """The per-stream forward pass: sng_encode, dot_product_sc and activate
    unit by unit. Reference oracle for the layer-batched forward_scnn."""
    point = np.asarray(x, dtype=float).reshape(-1)
    s_w, s_x, s_b = net.weight_scale, net.input_scale, net.bias_scale

    def encode(v, scale, key):
        return sng_encode(float(v) / scale, cfg.M, Encoding.BIPOLAR, key)

    out = 0.0
    for i in range(net.N):
        w = [encode(net.hidden_weights[i, j], s_w, cfg.key.substream("weights", i, j)) for j in range(net.n)]
        xs = [encode(point[j], s_x, cfg.key.substream("inputs", i, j)) for j in range(net.n)]
        b = encode(net.hidden_biases[i], s_b, cfg.key.substream("bias", i))
        pre = dot_product_sc(
            w, xs, b, cfg.mode, cfg.key.substream("select", i), scale=s_w * s_x
        )
        out += float(net.output_weights[i]) * activate(net.activation, pre)
    return out


def forward_matches_scalar(net, x, cfg):
    """The check of TestForwardMatchesScalarComposition: `forward_scnn`
    equals `scalar_forward` bit for bit, with the same gate counts."""
    with counting() as batched_counts:
        batched = forward_scnn(net, x, cfg)
    with counting() as scalar_counts:
        scalar = scalar_forward(net, x, cfg)
    assert batched.hex() == scalar.hex(), f"forward_scnn gives {batched.hex()}, the scalar composition {scalar.hex()}"
    assert batched_counts == scalar_counts


class TestGoldenBytes:
    @pytest.mark.parametrize("enc", list(Encoding))
    @pytest.mark.parametrize("M", MS)
    def test_sng_stream(self, enc, M):
        line = to_hex_line(sng_encode(STREAM_VALUES[enc], M, enc, STREAM_KEY))
        assert hashlib.sha256(line.encode()).hexdigest() == SNG_SHA256[(enc.tag, M)]

    @pytest.mark.parametrize("mode", list(AccumulationMode))
    @pytest.mark.parametrize("M", MS)
    def test_sine_forward(self, sine_net, mode, M):
        got = forward_scnn(sine_net, [0.25], ScnnConfig(M, StreamKey(7), mode))
        assert got.hex() == SINE_FORWARD[(mode.value, M)]

    @pytest.mark.parametrize("mode", list(AccumulationMode))
    def test_two_input_forward(self, mode):
        got = forward_scnn(TWO_INPUT_NET, [0.3, 0.9], ScnnConfig(64, StreamKey(11), mode))
        assert got.hex() == TWO_INPUT_FORWARD[mode.value]

    def test_long_mux_forward(self, sine_net):
        cfg = ScnnConfig(LONG_MUX_M, StreamKey(7), AccumulationMode.MUX)
        assert forward_scnn(sine_net, [0.25], cfg).hex() == LONG_MUX_FORWARD["sine"]
        cfg = ScnnConfig(LONG_MUX_M, StreamKey(11), AccumulationMode.MUX)
        assert forward_scnn(TWO_INPUT_NET, [0.3, 0.9], cfg).hex() == LONG_MUX_FORWARD["two-input"]


class TestEncodeMany:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        M=st.integers(1, 300),
        j=st.integers(0, 2**64 - 1),
    )
    def test_rows_equal_sng_encode(self, seed, probs, M, j):
        key = StreamKey(seed)
        rows = encode_many(probs, key.substream_keys([("w", np.arange(len(probs)), j)]), M)
        for i, p in enumerate(probs):
            assert np.array_equal(rows[i], sng_encode(p, M, Encoding.UNIPOLAR, key.substream("w", i, j)).bits)

    def test_streams_longer_than_a_draw_block(self):
        # 2^16 draws per block: these streams are drawn in two chunks.
        M = (1 << 16) + 9
        key = StreamKey(5)
        probs = [0.25, 0.5, 1.0]
        rows = encode_many(probs, key.substream_keys([("w", np.arange(3), 0)]), M)
        for i, p in enumerate(probs):
            expected = key.substream("w", i).generator().random(M) < p
            assert np.array_equal(rows[i], np.packbits(expected))

    def test_substream_keys_match_scalar_fold(self):
        key = StreamKey(2**64 - 3)
        unit, coord = np.arange(4)[:, None], np.array([0, 1, 2**63], dtype=np.uint64)
        keys = key.substream_keys([("weights", unit, coord), ("bias", unit, 0)])
        expected = [key.substream("weights", i, j)._philox_key() for i in range(4) for j in coord.tolist()]
        expected += [key.substream("bias", i)._philox_key() for i in range(4)]
        assert np.array_equal(keys, np.stack(expected))

    def test_rejects_bad_arguments(self):
        keys = StreamKey(1).substream_keys([("w", np.arange(2), 0)])
        with pytest.raises(EncodingRangeError, match="nan"):
            encode_many([0.5, float("nan")], keys, 8)
        with pytest.raises(EncodingRangeError):
            encode_many([0.5, 1.5], keys, 8)
        with pytest.raises(ValueError, match="key"):
            encode_many([0.5], keys, 8)
        with pytest.raises(ValueError):
            encode_many([0.5, 0.5], keys, 0)


class TestForwardMatchesScalarComposition:
    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 4),
        n=st.integers(1, 3),
        M=st.integers(1, 200),
        mode=st.sampled_from(list(AccumulationMode)),
        activation=st.sampled_from(list(Activation)),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_bit_identical_with_same_gate_counts(self, N, n, M, mode, activation, seed, data):
        reals = st.floats(-4.0, 4.0, allow_nan=False)
        W = data.draw(st.lists(reals, min_size=N * n, max_size=N * n))
        b = data.draw(st.lists(reals, min_size=N, max_size=N))
        a = data.draw(st.lists(reals, min_size=N, max_size=N))
        x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        net = _net(np.reshape(W, (N, n)), b, a, activation)
        forward_matches_scalar(net, x, ScnnConfig(M, StreamKey(seed), mode))

    def test_sine_net_over_a_grid(self, sine_net):
        for p, x in enumerate(np.linspace(0.0, 1.0, 9)):
            for mode in AccumulationMode:
                cfg = ScnnConfig(33, StreamKey(p), mode)
                assert forward_scnn(sine_net, [x], cfg) == scalar_forward(sine_net, [x], cfg)

    @pytest.mark.parametrize("case", ["sine", "two-input"])
    @pytest.mark.parametrize("mode", list(AccumulationMode))
    def test_streams_over_many_blocks(self, sine_net, mode, case):
        # Four clock blocks: the streamed layer against whole-stream gates.
        # The two-input net's MUX has k = 3 terms, so its selects come from
        # `integers` continued across blocks, and the last block is odd.
        net, x, seed = (sine_net, [0.25], 7) if case == "sine" else (TWO_INPUT_NET, [0.3, 0.9], 11)
        forward_matches_scalar(net, x, ScnnConfig(LONG_MUX_M, StreamKey(seed), mode))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_wide_layer_every_activation(self, activation):
        gen = np.random.default_rng(17)
        net = _net(gen.uniform(-3, 3, (37, 2)), gen.uniform(-3, 3, 37), gen.normal(size=37), activation)
        for mode in AccumulationMode:
            cfg = ScnnConfig(50, StreamKey(23), mode)
            assert forward_scnn(net, [0.4, 0.7], cfg) == scalar_forward(net, [0.4, 0.7], cfg)


class TestBnnPathBytes:
    """`convert --binarize`, `--to-scnn M` and `--to-bnn` on a small keyed
    net with m = 24 inputs: M = 3 gives chunks that are not byte-aligned,
    and M = 12 gives two-byte chunks with four pad bits each."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bnn-path")
        gen = StreamKey(0x5CB_2018, "golden-bnn").generator()
        W, b = gen.uniform(-1.5, 1.5, (5, 24)), gen.uniform(-1.5, 1.5, 5)
        save_json(out / "reference.json", network_to_dict(_net(W, b, gen.normal(size=5))))
        argv = ["convert", "--network", out / "reference.json", "--binarize", "--seed", "9",
                "--out-dir", out / "binary"]
        assert main([str(a) for a in argv]) == 0
        for M in (1, 3, 8, 12):
            argv = ["convert", "--network", out / "binary" / "binary_network.json",
                    "--to-scnn", M, "--seed", "9", "--out-dir", out / f"scnn{M}"]
            with contextlib.redirect_stdout(stdout := io.StringIO()):
                assert main([str(a) for a in argv]) == 0
            (out / f"scnn{M}.stdout").write_text(stdout.getvalue())
            argv = ["convert", "--network", out / f"scnn{M}" / "scnn_streams.json",
                    "--to-bnn", "--seed", "9", "--out-dir", out / f"bnn{M}"]
            assert main([str(a) for a in argv]) == 0
        return out

    def test_binarize(self, runs):
        assert _sha256(runs / "binary" / "binary_network.json") == BNN_BINARIZE_SHA256

    @pytest.mark.parametrize("M", (1, 3, 8, 12))
    def test_to_scnn(self, runs, M):
        assert _sha256(runs / f"scnn{M}" / "scnn_streams.json") == BNN_TO_SCNN_SHA256[M]

    @pytest.mark.parametrize("M", (1, 3, 8, 12))
    def test_to_scnn_stdout(self, runs, M):
        units = "".join(f"unit {u}: bnn={b} sc_total={s} [PASS]\n" for u, (b, s) in enumerate(BNN_TO_SCNN_UNITS[M]))
        assert (runs / f"scnn{M}.stdout").read_text() == units + f"wrote {runs / f'scnn{M}' / 'scnn_streams.json'}\n"

    @pytest.mark.parametrize("M", (1, 3, 8, 12))
    def test_to_bnn_round_trip(self, runs, M):
        assert _sha256(runs / f"bnn{M}" / "binary_network.json") == BNN_TO_BNN_SHA256[M]
        back = json.loads((runs / f"bnn{M}" / "binary_network.json").read_text())
        orig = json.loads((runs / "binary" / "binary_network.json").read_text())
        assert back["binary_weights"] == orig["binary_weights"]

    def test_fit_sine_seed_2(self, tmp_path):
        assert main(["fit", "--target", "sine", "--seed", "2", "--out-dir", str(tmp_path)]) == 0
        assert _sha256(tmp_path / "network.json") == FIT_SINE_SHA256


class TestBnnEvalBytes:
    """`eval --x-bits` on a keyed binary net (m = 37 inputs, so the weight
    rows end in three pad bits, and N = 7 units) for every activation."""

    @pytest.mark.parametrize("activation", list(Activation))
    def test_forward_bnn(self, activation, tmp_path, capsys):
        gen = StreamKey(0x5CB_2018, "golden-bnn-eval", list(Activation).index(activation)).generator()
        W, b = gen.uniform(-1.5, 1.5, (7, 37)), gen.uniform(-1.5, 1.5, 7)
        save_json(tmp_path / "reference.json", network_to_dict(_net(W, b, gen.normal(size=7), activation)))
        x_bits = "".join("1" if v < 0.5 else "0" for v in gen.random(37))
        argv = ["convert", "--network", tmp_path / "reference.json", "--binarize", "--seed", "9",
                "--out-dir", tmp_path]
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
        assert main(["eval", "--network", str(tmp_path / "binary_network.json"), "--x-bits", x_bits]) == 0
        assert capsys.readouterr().out == BNN_EVAL_STDOUT[activation.value]


class TestExperimentBytes:
    """Sweep, bound-validation and energy files, and one error profile: the
    grid-evaluation paths and the error statistics they report."""

    @pytest.fixture(scope="class")
    def c9_net(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("c9-fit")
        argv = ["fit", "--target", "sine", "--N", "8", "--grid-points", "64", "--seed", "6",
                "--out-dir", str(out)]
        assert main(argv) == 0
        return out / "network.json"

    @pytest.mark.parametrize("mode", list(AccumulationMode))
    def test_sweep_c9(self, c9_net, tmp_path, mode):
        argv = ["sweep", "--network", str(c9_net), "--target", "sine", "--Ms", "16,64",
                "--trials", "30", "--epsilon", "0.3", "--grid-points", "5", "--seed", "12345",
                "--mode", mode.value, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        got = {name: _sha256(tmp_path / name) for name in SWEEP_C9_SHA256[mode.value]}
        assert got == SWEEP_C9_SHA256[mode.value]

    def test_bound_validation_mux(self, tmp_path, capsys):
        assert main(["fit", "--target", "linear", "--N", "2", "--seed", "1",
                     "--out-dir", str(tmp_path / "fit")]) == 0
        argv = ["bound", "--n", "1", "--N", "2", "--epsilon", "0.3", "--delta", "0.5",
                "--alpha-sum", "0.5", "--validate", "--network", str(tmp_path / "fit" / "network.json"),
                "--target", "linear", "--trials", "7", "--grid-points", "5", "--seed", "3",
                "--mode", "mux", "--out-dir", str(tmp_path / "bound")]
        # The net's sum |alpha| is 0.713, so the bound at A = 0.5 does not cover it.
        assert main(argv) == 2
        assert "0.7134032174111817" in capsys.readouterr().err
        assert not (tmp_path / "bound").exists()
        argv[argv.index("--alpha-sum") + 1] = "0.75"
        assert main(argv) == 0
        assert _sha256(tmp_path / "bound" / "bound_report.json") == BOUND_MUX_SHA256

    @pytest.mark.parametrize("case", sorted(ENERGY_ARGV))
    def test_energy(self, tmp_path, case):
        assert main(["energy", *ENERGY_ARGV[case], "--out-dir", str(tmp_path)]) == 0
        assert _sha256(tmp_path / "energy.json") == ENERGY_SHA256[case]

    def test_error_profile(self):
        sine = make_target("sine", 1)
        net = fit_reference(sine, 8, unit_grid(1, 64), StreamKey(6))
        grid = unit_grid(1, 5)
        g_sc = forward_scnn_grid(net, grid, ScnnConfig(64, StreamKey(21), AccumulationMode.MUX))
        g_ref = forward_reference(net, grid)
        assert [v.hex() for v in np.abs(g_sc - g_ref).tolist()] == PROFILE_VS_REFERENCE
        stats = _row_statistics(g_sc[None], g_ref, sine(grid), 0.3)
        del stats["failure_rate"]
        assert {k: v.hex() for k, v in stats.items()} == PROFILE_SUMMARY


class TestPlatformNote:
    """A failing golden test names the platform digests that differ from the
    pins'. Each case runs golden tests in a child process under a setting
    that acts on that process only: numpy's baseline kernels change tanh
    (and exp, and so the fit); OpenBLAS's Haswell kernels change the fit."""

    @pytest.mark.parametrize("setting, test, differ", [
        ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"}, "TestGoldenBytes::test_two_input_forward", "tanh, exp, fit"),
        ({"OPENBLAS_CORETYPE": "Haswell"}, "TestExperimentBytes::test_error_profile", "fit"),
    ], ids=["numpy-baseline-kernels", "openblas-haswell"])
    def test_failure_names_the_digest(self, setting, test, differ):
        src = str(Path(scbnn.__file__).parents[1])
        env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::{test}"],
                               cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True)
        assert child.returncode == 1, child.stdout
        assert f"platform digests differ from the pins': {differ};" in child.stdout
