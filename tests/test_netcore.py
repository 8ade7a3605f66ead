import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    Activation,
    ReferenceNetwork,
    SchemaError,
    StreamKey,
    TargetFunction,
    activate,
    activate_deriv,
    fit_reference,
    forward_reference,
    make_target,
    sup_error,
    unit_grid,
)
from scbnn.netcore import MAX_GRID_POINTS, load_json_object, network_from_dict, network_to_dict, pow2_scale, save_json

KEY = StreamKey(0xFE11)
GRID = unit_grid(1, 256)


def tiny_net(weights, biases, outputs, activation=Activation.SIGMOID):
    W = np.atleast_2d(np.asarray(weights, dtype=float))
    b = np.asarray(biases, dtype=float)
    return ReferenceNetwork(
        W, b, np.asarray(outputs, dtype=float), activation, pow2_scale(max(np.abs(W).max(), np.abs(b).max()))
    )


class TestActivate:
    def test_sigmoid_midpoint(self):
        assert activate(Activation.SIGMOID, 0.0) == 0.5

    def test_tanh_odd(self):
        assert activate(Activation.TANH, 0.0) == 0.0

    def test_relu_clamp(self):
        assert activate(Activation.RELU, -3.0) == 0.0
        assert activate(Activation.RELU, 2.5) == 2.5

    def test_sigmoid_stable_extremes(self):
        assert activate(Activation.SIGMOID, 800.0) == 1.0
        assert activate(Activation.SIGMOID, -800.0) == 0.0

    @pytest.mark.parametrize("act", list(Activation))
    def test_derivative_bound_on_grid(self, act):
        t = np.linspace(-40, 40, 10_001)
        d = activate_deriv(act, t)
        assert np.all(np.abs(d) <= act.derivative_bound + 1e-12)

    @pytest.mark.parametrize("act", [Activation.SIGMOID, Activation.TANH])
    def test_derivative_matches_central_difference(self, act):
        t = np.linspace(-6, 6, 241)
        h = 1e-6
        numeric = (activate(act, t + h) - activate(act, t - h)) / (2 * h)
        assert np.allclose(activate_deriv(act, t), numeric, atol=1e-6)

    def test_sigmoidal_limits(self):
        # sigmoid -> (0, 1); tanh -> (-1, 1) as t -> -inf/+inf
        assert activate(Activation.SIGMOID, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert activate(Activation.SIGMOID, -40.0) == pytest.approx(0.0, abs=1e-12)
        assert activate(Activation.TANH, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert activate(Activation.TANH, -40.0) == pytest.approx(-1.0, abs=1e-12)


class TestForwardReference:
    def test_zero_output_layer(self):
        net = tiny_net([[1.0], [2.0]], [0.5, -0.5], [0.0, 0.0])
        for x in (0.0, 0.3, 1.0):
            assert forward_reference(net, [x]) == 0.0

    def test_constant_preactivation(self):
        net = tiny_net([[0.0]], [0.0], [1.0])
        for x in (0.0, 0.7, 1.0):
            assert forward_reference(net, [x]) == 0.5

    def test_cancelling_pair(self):
        net = tiny_net([[1.5], [1.5]], [0.25, 0.25], [1.0, -1.0])
        for x in (0.1, 0.6):
            assert forward_reference(net, [x]) == 0.0

    def test_batch_matches_pointwise(self):
        net = tiny_net([[2.0], [-1.0]], [0.1, 0.2], [0.3, 0.7])
        pts = np.linspace(0, 1, 9).reshape(-1, 1)
        batch = forward_reference(net, pts)
        assert batch.shape == (9,)
        for i, p in enumerate(pts):
            assert batch[i] == pytest.approx(forward_reference(net, p), rel=1e-14)

    def test_dimension_mismatch(self):
        net = tiny_net([[1.0, 2.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            forward_reference(net, [0.5])
        with pytest.raises(ValueError, match="^point has dimension 1, target expects 2$"):
            make_target("linear", 2)([0.5])


class TestFitReference:
    def test_constant_target(self):
        f = make_target("constant", 1, value=0.3)
        net = fit_reference(f, 4, GRID, StreamKey(1), edge_fraction=0.0)
        assert net.fit_sup_error < 1e-6

    def test_linear_target(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 16, GRID, StreamKey(23))
        assert net.fit_sup_error < 0.02

    def test_sine_target(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 32, GRID, StreamKey(2), edge_fraction=0.75, noise_penalty=1e-2)
        assert net.fit_sup_error < 0.05

    def test_deterministic(self):
        f = make_target("sine", 1)
        a = fit_reference(f, 8, GRID, StreamKey(5))
        b = fit_reference(f, 8, GRID, StreamKey(5))
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.hidden_biases, b.hidden_biases)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_parameters_within_prescale(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 12, GRID, StreamKey(9))
        assert net.input_scale == 1.0
        assert np.abs(net.hidden_weights).max() <= net.weight_scale
        assert np.abs(net.hidden_biases).max() <= net.bias_scale
        assert net.weight_scale == pow2_scale(net.weight_scale)

    def test_rejects_bad_args(self):
        f = make_target("constant", 1)
        with pytest.raises(ValueError):
            fit_reference(f, 0, GRID, KEY)
        with pytest.raises(ValueError):
            fit_reference(f, 4, np.empty((0, 1)), KEY)
        with pytest.raises(ValueError):
            fit_reference(f, 4, GRID, KEY, edge_fraction=1.5)


class TestSupError:
    def test_exact_constant_is_zero(self):
        net = tiny_net([[0.0]], [0.0], [2.0])  # G(x) = 1.0 everywhere
        f = make_target("constant", 1, value=1.0)
        assert sup_error(net, f, GRID) == 0.0

    def test_singleton_grid(self):
        net = tiny_net([[0.0]], [0.0], [1.0])  # G = 0.5
        f = make_target("constant", 1, value=0.2)
        assert sup_error(net, f, np.array([[0.7]])) == pytest.approx(0.3)
        with pytest.raises(ValueError, match="^grid is empty$"):
            sup_error(net, f, np.empty((0, 1)))

    def test_monotone_in_grid(self):
        net = tiny_net([[3.0]], [-1.0], [1.0])
        f = make_target("sine", 1)
        coarse = sup_error(net, f, unit_grid(1, 16))
        fine = sup_error(net, f, unit_grid(1, 256))  # refines the 16-point grid
        assert fine >= coarse


class TestTargets:
    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            make_target("mystery", 1)

    def test_sine_values(self):
        f = make_target("sine", 1)
        assert f([0.25]) == pytest.approx(1.0)
        assert f([0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_grid_shapes(self):
        assert unit_grid(1).shape == (256, 1)
        assert unit_grid(2).shape == (64 * 64, 2)
        assert unit_grid(2, 5).shape == (25, 2)
        with pytest.raises(ValueError):
            unit_grid(0)

    def test_zero_points_per_axis_is_not_the_default(self):
        with pytest.raises(ValueError, match="points per axis"):
            unit_grid(1, 0)

    @pytest.mark.parametrize("n", [8, 10])
    def test_default_grid_too_large_fails_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"n={n} dimensions has {8**n} points"):
                unit_grid(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_size_limit(self):
        assert unit_grid(1, MAX_GRID_POINTS).shape == (MAX_GRID_POINTS, 1)
        with pytest.raises(ValueError, match="more than the limit"):
            unit_grid(1, MAX_GRID_POINTS + 1)
        assert unit_grid(6).shape == (8**6, 6)

    @pytest.mark.parametrize("name, params, match", [
        ("sine", {"cycle": 3.0}, "no parameter 'cycle'"),
        ("linear", {"value": 0.2}, "no parameter 'value'"),
        ("sine", {"cycles": float("nan")}, "cycles=nan must be finite"),
        ("bump", {"width": float("inf")}, "width=inf must be finite"),
        ("constant", {"value": -float("inf")}, "value=-inf must be finite"),
    ])
    def test_bad_parameter(self, name, params, match):
        with pytest.raises(ValueError, match=match):
            make_target(name, 1, **params)

    def test_parameters_reach_the_target(self):
        assert make_target("constant", 1, value=0.7)([0.2]) == 0.7
        assert make_target("sine", 1, cycles=2.0)([0.125]) == pytest.approx(1.0)

    @pytest.mark.parametrize("width", [0.0, -0.15])
    def test_bump_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match=rf"width={width!r} must be > 0"):
            make_target("bump", 1, width=width)

    @pytest.mark.parametrize("f, n, message", [
        (make_target("sine", 1, cycles=1e308), 1, "target 'sine' is nan at x = [0.0], not finite"),
        (make_target("bump", 2, width=1e-200), 2, "target 'bump' is nan at x = [0.5, 0.5], not finite"),
        (TargetFunction("pole", 1, lambda pts: 1.0 / (pts[:, 0] - 0.5)), 1,
         "target 'pole' is inf at x = [0.5], not finite"),
    ], ids=["overflow", "zero-over-zero", "divide-by-zero"])
    def test_value_not_finite_is_named(self, f, n, message):
        # No RuntimeWarning escapes (warnings are errors in this suite).
        with pytest.raises(ValueError) as raised:
            f(unit_grid(n, 3))
        assert str(raised.value) == message


class TestWeightFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        f = make_target("sine", 1)
        net = fit_reference(f, 6, GRID, StreamKey(4))
        path = tmp_path / "net.json"
        save_json(path, network_to_dict(net))
        loaded = network_from_dict(load_json_object(path, "weight file"), where=str(path))
        assert np.array_equal(loaded.hidden_weights, net.hidden_weights)
        assert np.array_equal(loaded.hidden_biases, net.hidden_biases)
        assert np.array_equal(loaded.output_weights, net.output_weights)
        assert loaded.activation is net.activation
        assert loaded.name == net.name
        assert (loaded.weight_scale, loaded.input_scale, loaded.bias_scale) == (
            net.weight_scale, net.input_scale, net.bias_scale
        )

    def _valid_doc(self):
        return {
            "name": "t",
            "n": 2,
            "N": 2,
            "activation": "sigmoid",
            "hidden_weights": [[1.0, 2.0], [3.0, 4.0]],
            "hidden_biases": [0.1, 0.2],
            "output_weights": [1.0, -1.0],
            "prescale": {"weights": 4.0, "inputs": 1.0, "bias": 4.0},
        }

    def test_zero_width_rejected(self):
        doc = self._valid_doc()
        doc["N"] = 0
        doc["hidden_weights"] = []
        with pytest.raises(SchemaError, match="N"):
            network_from_dict(doc)

    def test_row_length_error_names_row(self):
        doc = self._valid_doc()
        doc["hidden_weights"][1] = [3.0]
        with pytest.raises(SchemaError, match=r"hidden_weights\[1\]"):
            network_from_dict(doc)

    def test_nan_rejected(self, tmp_path):
        doc = self._valid_doc()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc).replace("0.1", "NaN"))
        with pytest.raises(SchemaError, match="NaN"):
            load_json_object(path, "weight file")

    def test_unknown_activation(self):
        doc = self._valid_doc()
        doc["activation"] = "swish"
        with pytest.raises(SchemaError, match="swish"):
            network_from_dict(doc)

    def test_missing_field(self):
        doc = self._valid_doc()
        del doc["output_weights"]
        with pytest.raises(SchemaError, match="output_weights"):
            network_from_dict(doc)

    def test_bias_scale_is_weights_times_inputs(self, tmp_path):
        # forward_scnn un-scales every preactivation by weights * inputs, so
        # the bias scale is derived, and written as floats like the others.
        net = ReferenceNetwork(np.array([[0.5]]), np.array([0.75]), np.array([1.0]), Activation.RELU, 2, 3)
        assert net.bias_scale == 6.0
        save_json(tmp_path / "net.json", network_to_dict(net))
        text = (tmp_path / "net.json").read_text()
        assert '"prescale": {\n    "bias": 6.0,\n    "inputs": 3.0,\n    "weights": 2.0\n  }' in text
        assert network_from_dict(json.loads(text)).bias_scale == 6.0

    @pytest.mark.parametrize("field, value, message", [
        ("hidden_weights", [[0.5, -2.5]], "field 'hidden_weights[0][1]' is -2.5, beyond the weights pre-scale factor 2.0"),
        ("hidden_biases", [4.5], "field 'hidden_biases[0]' is 4.5, beyond the bias pre-scale factor 4.0"),
    ])
    def test_values_beyond_their_scale_are_named(self, field, value, message):
        # Values at their scales build, output weights are not bounded, and
        # the bias scale is weights * inputs = 4.
        net = {"hidden_weights": [[0.5, -2.0]], "hidden_biases": [-4.0], "output_weights": [9.0],
               "activation": Activation.RELU, "weight_scale": 2.0, "input_scale": 2.0}
        ReferenceNetwork(**net)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ReferenceNetwork(**{**net, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("hidden_weights", np.empty((0, 1)), "network needs N >= 1 and n >= 1, got N=0, n=1"),
        ("hidden_weights", [[]], "network needs N >= 1 and n >= 1, got N=1, n=0"),
        ("output_weights", [1.0, 1.0], "inconsistent shapes: weights (1, 1), biases (1,), outputs (2,)"),
        ("hidden_biases", [float("nan")], "hidden_biases contains non-finite values"),
        ("output_weights", [float("inf")], "output_weights contains non-finite values"),
    ], ids=["N-zero", "n-zero", "inconsistent-shapes", "nan-bias", "inf-output"])
    def test_malformed_arrays_are_refused(self, field, value, message):
        net = {"hidden_weights": [[0.5]], "hidden_biases": [0.5], "output_weights": [1.0],
               "activation": Activation.RELU, "weight_scale": 1.0}
        ReferenceNetwork(**net)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ReferenceNetwork(**{**net, field: value})

    @pytest.mark.parametrize("activation", list(Activation))
    def test_fitted_nets_build_and_round_trip(self, activation):
        for N, target, n in ((1, "constant", 1), (7, "sine", 1), (16, "bump", 2)):
            net = fit_reference(make_target(target, n), N, unit_grid(n, 16), StreamKey(N), activation)
            assert network_to_dict(network_from_dict(network_to_dict(net))) == network_to_dict(net)

    @pytest.mark.parametrize("weight_scale, input_scale, named", [
        (0.0, 1.0, "weight scale"),
        (1.0, -1.0, "input scale"),
        (float("inf"), 1.0, "weight scale"),
        (1e200, 1e200, "bias scale"),
    ])
    def test_scales_must_be_positive_and_finite(self, weight_scale, input_scale, named):
        with pytest.raises(ValueError, match=named):
            ReferenceNetwork([[0.5]], [0.5], [1.0], Activation.RELU, weight_scale, input_scale)


class TestPow2Scale:
    def test_pow2_scale(self):
        assert pow2_scale(0.3) == 1.0
        assert pow2_scale(1.0) == 1.0
        assert pow2_scale(3.9) == 4.0
        assert pow2_scale(4.0) == 4.0
        assert pow2_scale(4.001) == 8.0

    @given(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
        st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_round_trip_exact(self, v, k):
        scale = pow2_scale(2**k)
        if abs(v) > scale or (v != 0 and abs(v) < 1e-280):
            return  # quotient must stay in the normal float range
        assert v / scale * scale == v


class TestJsonFiles:
    def test_unencodable_value_writes_nothing(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            save_json(path, {"a": 1.0, "z": object()})
        with pytest.raises(ValueError):
            save_json(path, {"a": 1.0, "z": float("nan")})
        assert not path.exists()

    def test_deep_nesting_is_a_schema_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SchemaError, match=r"deep.json: JSON nested too deeply$"):
            load_json_object(path, "network file")

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 5}', "seed"),
        ('{"N": 2, "n": 1, "N": 2}', "N"),
        ('{"prescale": {"weights": 1.0, "inputs": 1.0, "weights": 2.0}}', "weights"),
        ('{"a": [{"b": 1, "c": 2, "b": 1}]}', "b"),
    ], ids=["config", "same-value", "nested", "in-list"])
    def test_repeated_key_is_named(self, tmp_path, text, key):
        # The last value used to win without a word.
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as raised:
            load_json_object(path, "config")
        assert str(raised.value) == f"{path}: repeated key {key!r}"

    def test_keys_differing_in_case_are_not_repeats(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 1, "N": 2, "inner": {"n": 3}}')
        assert load_json_object(path, "config") == {"n": 1, "N": 2, "inner": {"n": 3}}
