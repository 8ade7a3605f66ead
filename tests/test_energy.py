import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    AccumulationMode,
    Encoding,
    GateCounts,
    StreamKey,
    bnn_layer_energy,
    counting,
    dot_product_sc,
    layer_energy,
    sng_encode,
)

KEY = StreamKey(0xE4E7)
MODES = [AccumulationMode.MUX, AccumulationMode.APC]


class TestClosedForm:
    def test_smallest_mux_neuron(self):
        rep = layer_energy(1, 1, 1, AccumulationMode.MUX)
        assert rep.xnor_ops == 1  # one product bit
        assert rep.mux_select_ops == 1  # one binary select cell for 2 terms
        assert rep.apc_bit_adds == 0
        assert rep.total == 2

    def test_apc_neuron(self):
        rep = layer_energy(4, 16, 1, AccumulationMode.APC)
        assert rep.xnor_ops == 64
        assert rep.apc_bit_adds == 64 * math.ceil(math.log2(64 + 2))
        assert rep.mux_select_ops == 0

    def test_mux_classes_linear_in_M(self):
        for n in (1, 3, 7):
            a = layer_energy(n, 32, 1, AccumulationMode.MUX)
            b = layer_energy(n, 64, 1, AccumulationMode.MUX)
            assert b.xnor_ops == 2 * a.xnor_ops
            assert b.mux_select_ops == 2 * a.mux_select_ops
            assert b.total == 2 * a.total

    def test_layer_additivity(self):
        for mode in MODES:
            a = layer_energy(5, 16, 3, mode).classes()
            b = layer_energy(5, 16, 4, mode).classes()
            c = layer_energy(5, 16, 7, mode).classes()
            assert {k: a[k] + b[k] for k in a} == c

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            layer_energy(0, 8, 1, AccumulationMode.MUX)
        with pytest.raises(ValueError):
            layer_energy(1, 0, 1, AccumulationMode.MUX)
        with pytest.raises(ValueError):
            bnn_layer_energy(0, 1, AccumulationMode.MUX)
        with pytest.raises(ValueError, match="layer width N must be an integer >= 1, got 0"):
            bnn_layer_energy(8, 0, AccumulationMode.MUX)

    # A float size was counted as if it were one (n = 8.5 gave 68.0 XNOR
    # ops), and True was counted as 1.
    @pytest.mark.parametrize("value", [8.5, True])
    @pytest.mark.parametrize("call, message", [
        (lambda v: layer_energy(v, 8, 2, AccumulationMode.APC), "need integers n, M, N >= 1, got n={v!r}, M=8, N=2"),
        (lambda v: layer_energy(2, v, 2, AccumulationMode.APC), "need integers n, M, N >= 1, got n=2, M={v!r}, N=2"),
        (lambda v: layer_energy(2, 8, v, AccumulationMode.MUX), "need integers n, M, N >= 1, got n=2, M=8, N={v!r}"),
        (lambda v: bnn_layer_energy(v, 2, AccumulationMode.APC), "bit budget m must be an integer >= 1, got {v!r}"),
        (lambda v: bnn_layer_energy(8, v, AccumulationMode.MUX), "layer width N must be an integer >= 1, got {v!r}"),
    ], ids=["layer-n", "layer-M", "layer-N", "bnn-m", "bnn-N"])
    def test_size_not_an_integer_is_refused(self, call, message, value):
        with pytest.raises(ValueError, match=rf"^{re.escape(message.format(v=value))}$"):
            call(value)

    def test_numpy_integer_sizes_are_sizes(self):
        n, M, N = np.int64(3), np.int32(16), np.uint8(2)
        for mode in MODES:
            assert layer_energy(n, M, N, mode).classes() == layer_energy(3, 16, 2, mode).classes()
            assert bnn_layer_energy(n * M, N, mode).classes() == bnn_layer_energy(48, 2, mode).classes()

    def test_asymptotic_labels(self):
        assert layer_energy(2, 8, 3, AccumulationMode.MUX).asymptotic_label == "O(n·M·N)"
        assert "log" in layer_energy(2, 8, 3, AccumulationMode.APC).asymptotic_label
        assert bnn_layer_energy(16, 3, AccumulationMode.MUX).asymptotic_label == "O(m·N)"


class TestReportIsGateCounts:
    def test_counts_are_the_gate_count_fields(self):
        rep = layer_energy(4, 64, 8, AccumulationMode.APC)
        assert isinstance(rep, GateCounts)
        assert rep.classes() == GateCounts(**rep.classes()).as_dict()
        assert rep.total == sum(rep.classes().values())
        assert list(rep.to_dict()) == [*rep.classes(), "total", "n", "M", "N", "mode", "asymptotic_label"]


class TestBnnEquivalence:
    def test_bnn_matches_unit_chunk_layer(self):
        got = bnn_layer_energy(8, 1, AccumulationMode.MUX)
        want = layer_energy(8, 1, 1, AccumulationMode.MUX)
        assert got.classes() == want.classes()

    @given(st.integers(1, 16), st.sampled_from([1, 2, 8, 64]), st.integers(1, 8),
           st.sampled_from(MODES))
    @settings(max_examples=80)
    def test_classwise_equality_under_shared_budget(self, n, M, N, mode):
        assert layer_energy(n, M, N, mode).classes() == bnn_layer_energy(n * M, N, mode).classes()

    def test_mux_counts_double_with_m(self):
        a = bnn_layer_energy(16, 2, AccumulationMode.MUX)
        b = bnn_layer_energy(32, 2, AccumulationMode.MUX)
        assert b.xnor_ops == 2 * a.xnor_ops
        assert b.mux_select_ops == 2 * a.mux_select_ops


class TestAsymptoticRatios:
    def test_mux_total_over_nM_is_constant(self):
        for n in (4, 16, 64, 256, 1024):
            rep = layer_energy(n, 8, 1, AccumulationMode.MUX)
            assert rep.total / (n * 8) == 2.0

    def test_apc_total_over_nM_logn_bounded(self):
        ratios = []
        for n in (4, 16, 64, 256, 1024):
            rep = layer_energy(n, 8, 1, AccumulationMode.APC)
            ratios.append(rep.total / (n * 8 * math.log2(n)))
        assert max(ratios) < 8.0


def simulate_layer(n, M, N, mode):
    """Run N real dot products and return the gate tallies."""
    with counting() as counts:
        for i in range(N):
            key = KEY.derive(n, M, N, i)
            w = [sng_encode(0.3, M, Encoding.BIPOLAR, key.substream("w", i, j)) for j in range(n)]
            x = [sng_encode(0.5, M, Encoding.BIPOLAR, key.substream("x", i, j)) for j in range(n)]
            b = sng_encode(-0.2, M, Encoding.BIPOLAR, key.substream("b", i))
            dot_product_sc(w, x, b, mode, key.substream("sel", i))
    return counts


class TestCounterAgreement:
    @given(st.integers(1, 10), st.sampled_from([1, 8, 33]), st.integers(1, 4),
           st.sampled_from(MODES))
    @settings(max_examples=25, deadline=None)
    def test_counters_match_closed_form(self, n, M, N, mode):
        counts = simulate_layer(n, M, N, mode)
        assert layer_energy(n, M, N, mode).classes() == counts.as_dict()

    def test_and_ops_unused_by_network_path(self):
        counts = simulate_layer(2, 8, 1, AccumulationMode.APC)
        assert counts.and_ops == 0
