import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scbnn
from scbnn import Activation, BinaryNetwork, Encoding, StreamFormatError, from_hex_lines
from scbnn import cli, transform
from scbnn.cli import main
from scbnn.bnn import binary_network_from_dict, binary_network_to_dict
from scbnn.netcore import load_json_object, save_json


def run(*argv):
    return main([str(a) for a in argv])


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def sine_net(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run(
        "fit", "--target", "sine", "--N", "8", "--grid-points", "64",
        "--seed", "6", "--out-dir", out,
    )
    assert code == 0
    return out / "network.json"


@pytest.fixture(scope="module")
def bnn_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("bnn")
    gen = np.random.default_rng(21)
    bnet = BinaryNetwork(
        np.packbits(np.array([gen.choice([-1, 1], 12) for _ in range(3)]) == 1, axis=1),
        12,
        gen.choice([-1, 1], 3),
        gen.normal(size=3),
        Activation.SIGMOID,
        name="clitest",
    )
    path = out / "bnet.json"
    save_json(path, binary_network_to_dict(bnet))
    return path


class TestFit:
    def test_writes_network_and_report(self, sine_net):
        report = json.loads((sine_net.parent / "fit_report.json").read_text())
        assert report["sup_error"] < 0.05
        assert report["meta"]["tool"].startswith("scbnn")
        assert report["meta"]["rng"]
        assert "config_hash" in report["meta"]
        doc = json.loads(sine_net.read_text())
        assert doc["N"] == 8 and doc["n"] == 1
        assert doc["meta"]["seed"] == 6  # CLI-written artifacts carry metadata too

    def test_missing_target_is_usage_error(self, tmp_path):
        assert run("fit", "--N", "4", "--out-dir", tmp_path) == 2

    def test_unknown_target_is_usage_error(self, tmp_path):
        assert run("fit", "--target", "nope", "--out-dir", tmp_path) == 2

    def test_empty_name_is_usage_error(self, tmp_path, capsys):
        # An empty --name used to write the default name quietly.
        assert run("fit", "--target", "sine", "--N", "4", "--name", "", "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: --name must not be empty\n"
        assert not (tmp_path / "o").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 6,
            "target": {"name": "constant", "n": 1, "params": ["value=0.4"]},
            "fit": {"N": 4, "grid": 32, "edge_fraction": 0.0},
        }))
        out = tmp_path / "o"
        assert run("fit", "--config", cfg, "--target", "linear", "--out-dir", out) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["target"] == "linear"  # flag wins over config


    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_config_seed_is_usage_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "target": {"name": "sine"}}))
        assert run("fit", "--config", cfg, "--N", "4", "--out-dir", tmp_path / "o") == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("config, key", [
        ({"fit": {"N": 8.7}}, "fit.N"),
        ({"fit": {"grid": "64"}}, "fit.grid"),
        ({"fit": {"ridge": True}}, "fit.ridge"),
        ({"target": {"name": "sine", "params": ["cycles=1", 2]}}, "target.params[1]"),
        ({"fit": [4]}, "fit"),
    ])
    def test_wrong_config_type_names_the_key(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": {"name": "sine"}, **config}))
        assert run("fit", "--config", cfg, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} must be ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "network.json").exists()

    def test_zero_grid_points_is_usage_error(self, tmp_path, capsys):
        assert run("fit", "--target", "sine", "--grid-points", "0", "--out-dir", tmp_path) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "network.json").exists()

    # A config file cannot hold NaN or Infinity: its loader rejects them.
    @pytest.mark.parametrize("key", ["ridge", "noise_penalty"])
    @pytest.mark.parametrize("source, value", [
        ("flag", "nan"), ("flag", "inf"), ("flag", "-1e-08"), ("config", "-1e-08"),
    ])
    def test_penalty_not_finite_and_non_negative_is_usage_error(self, tmp_path, capsys, key, source, value):
        if source == "flag":
            argv = ["--target", "sine", f"--{key.replace('_', '-')}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"target": {"name": "sine"}, "fit": {key: float(value)}}))
            argv = ["--config", cfg]
        assert run("fit", "--N", "4", *argv, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite and >= 0") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 7.28 TiB"), "out of memory: Unable to allocate 7.28 TiB"),
    ], ids=["bare", "numpy"])
    def test_out_of_memory_is_one_line_usage_error(self, tmp_path, capsys, monkeypatch, error, message):
        def fit_reference(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "fit_reference", fit_reference)
        assert run("fit", "--target", "sine", "--N", "4", "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_singular_fit_is_usage_error(self, tmp_path):
        # One grid point and no regularization leave the solve singular. The
        # fit is not retried at a larger ridge than the one asked for, so it
        # ends at once (it used to loop for ever at ridge 0).
        proc = subprocess.run(
            [sys.executable, "-m", "scbnn.cli", "fit", "--target", "sine", "--N", "8", "--grid-points", "1",
             "--ridge", "0", "--noise-penalty", "0", "--out-dir", tmp_path / "o"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(scbnn.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: the fit has no finite solution at ridge 0.0; use a larger --ridge\n"
        assert not (tmp_path / "o").exists()


class TestSeedAndTargetParams:
    """A seed outside [0, 2^64) and a target parameter the target does not
    take, or that is not finite, exit 2 with one line and write nothing."""

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_flag_outside_64_bits(self, tmp_path, capsys, seed):
        assert run("fit", "--target", "sine", "--N", "4", "--seed", seed, "--out-dir", tmp_path) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "network.json").exists()

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_config_seed_outside_64_bits(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "target": {"name": "sine"}}))
        assert run("fit", "--config", cfg, "--N", "4", "--out-dir", tmp_path / "o") == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o" / "network.json").exists()

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_convert_seed_outside_64_bits(self, bnn_file, tmp_path, capsys, seed):
        assert run("convert", "--network", bnn_file, "--to-scnn", "4", "--seed", seed,
                   "--out-dir", tmp_path) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "scnn_streams.json").exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        assert run("fit", "--target", "sine", "--N", "4", "--grid-points", "16",
                   "--seed", 2**64 - 1, "--out-dir", tmp_path) == 0

    @pytest.mark.parametrize("param", ["cycle=3", "cycles=nan", "cycles=inf", "cycles=-inf", "value=0.2"])
    def test_fit(self, tmp_path, capsys, param):
        assert run("fit", "--target", "sine", "--N", "4", "--target-param", param,
                   "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert param.split("=")[0] in err and err.count("\n") == 1
        assert not (tmp_path / "network.json").exists()

    def test_config_params_belong_to_the_config_target(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": {"name": "sine", "params": ["cycle=2"]}}))
        argv = ("fit", "--config", cfg, "--N", "4", "--grid-points", "16")
        assert run(*argv, "--out-dir", tmp_path / "a") == 2
        assert run(*argv, "--target", "sine", "--out-dir", tmp_path / "b") == 2
        assert "'cycle'" in capsys.readouterr().err
        assert run(*argv, "--target", "linear", "--out-dir", tmp_path / "c") == 0

    def test_target_params_are_hashed(self, sine_net, tmp_path):
        # Params from the flag and from the config hash alike; other params, another hash.
        def meta(cmd, argv, out):
            assert run(*argv, "--out-dir", tmp_path / out) == 0
            path = tmp_path / out / ("fit_report.json" if cmd == "fit" else "sweep_summary.json")
            return json.loads(path.read_text())["meta"]["config_hash"]

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": {"name": "sine", "params": ["cycles=2"]}}))
        commands = {
            "fit": ("fit", "--target", "sine", "--N", "4", "--grid-points", "16"),
            "sweep": ("sweep", "--network", sine_net, "--target", "sine", "--Ms", "4",
                      "--trials", "30", "--grid-points", "2"),
        }
        for cmd, argv in commands.items():
            one = meta(cmd, (*argv, "--target-param", "cycles=1"), f"{cmd}-1")
            two = meta(cmd, (*argv, "--target-param", "cycles=2"), f"{cmd}-2")
            assert one != two
            assert meta(cmd, (*argv, "--config", cfg), f"{cmd}-config") == two

    @pytest.mark.parametrize("source", ["--target-param", "config target.params"])
    def test_repeated_param_is_usage_error(self, sine_net, tmp_path, capsys, source):
        # The last value used to win without a word.
        argv = ["sweep", "--network", sine_net, "--target", "sine", "--Ms", "4", "--trials", "30",
                "--grid-points", "2", "--out-dir", tmp_path / "o"]
        if source == "--target-param":
            argv += ["--target-param", "cycles=2", "--target-param", "cycles=3"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"target": {"name": "sine", "params": ["cycles=2", "cycles=3"]}}))
            argv += ["--config", cfg]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {source} gives 'cycles' twice\n"
        assert not (tmp_path / "o").exists()

    def test_parser_keeps_no_values_between_calls(self, tmp_path):
        # The parser is built once; each call's --target-param list is its own.
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        argv = ["fit", "--target", "sine", "--out-dir", "o"]
        assert parser.parse_args([*argv, "--target-param", "cycles=2"]).target_param == ["cycles=2"]
        assert parser.parse_args(argv).target_param is None
        base = ("fit", "--target", "sine", "--N", "4", "--grid-points", "16")
        for out, extra in (("a", ("--target-param", "cycles=2")), ("b", ()), ("c", ("--target-param", "cycles=2"))):
            assert run(*base, *extra, "--out-dir", tmp_path / out) == 0
        a, b, c = ((tmp_path / out / "network.json").read_bytes() for out in "abc")
        assert a == c != b

    @pytest.mark.parametrize("param", ["cycle=3", "cycles=nan"])
    def test_sweep(self, sine_net, tmp_path, capsys, param):
        assert run("sweep", "--network", sine_net, "--target", "sine", "--target-param", param,
                   "--Ms", "4", "--trials", "30", "--grid-points", "2", "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert param.split("=")[0] in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param", ["width=0.2", "cycles=inf"])
    def test_bound_validate(self, sine_net, tmp_path, capsys, param):
        assert run("bound", "--n", "1", "--N", "8", "--epsilon", "1.0", "--delta", "0.25",
                   "--alpha-sum", "2.0", "--validate", "--network", sine_net, "--target", "sine",
                   "--target-param", param, "--trials", "2", "--grid-points", "2",
                   "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert param.split("=")[0] in err and err.count("\n") == 1
        assert not (tmp_path / "bound_report.json").exists()


#: One argv per command that evaluates a target on a grid holding 0 and 0.5.
TARGET_ARGV = {
    "fit": ("fit", "--N", "4", "--grid-points", "17"),
    "sweep": ("sweep", "--network", "{net}", "--Ms", "4", "--trials", "30", "--grid-points", "17"),
    "bound": ("bound", "--n", "1", "--N", "8", "--epsilon", "1.0", "--delta", "0.25", "--alpha-sum", "30",
              "--validate", "--network", "{net}", "--trials", "2", "--grid-points", "3"),
}


class TestNonFiniteTarget:
    """A target with no finite value somewhere on the grid is a one-line
    usage error that writes no file. It used to be blamed on the solver
    (fit), written as NaN before the JSON writer refused it (sweep), or
    passed (bound: NaN >= epsilon is false)."""

    @pytest.mark.parametrize("command", sorted(TARGET_ARGV))
    @pytest.mark.parametrize("target, param, named", [
        ("bump", "width=0", "width=0.0 must be > 0"),
        ("bump", "width=1e-200", "target 'bump' is nan at x = [0.5]"),
        ("sine", "cycles=1e308", "target 'sine' is nan at x = [0.0]"),
    ])
    def test_exits_2_and_writes_nothing(self, sine_net, tmp_path, capsys, command, target, param, named):
        argv = [a.format(net=sine_net) for a in TARGET_ARGV[command]]
        assert run(*argv, "--target", target, "--target-param", param, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "o").exists()


class TestEval:
    def test_reference_and_scnn(self, sine_net, capsys):
        assert run("eval", "--network", sine_net, "--x", "0.25",
                   "--scnn", "--M", "1024", "--seed", "4") == 0
        out = capsys.readouterr().out
        assert "reference" in out and "scnn" in out

    def test_binary_network(self, bnn_file, capsys):
        assert run("eval", "--network", bnn_file, "--x-bits", "101100111000") == 0
        assert "bnn" in capsys.readouterr().out

    def test_binary_needs_bits(self, bnn_file):
        assert run("eval", "--network", bnn_file, "--x", "0.5") == 2

    def test_reference_needs_x(self, sine_net, capsys):
        assert run("eval", "--network", sine_net, "--scnn") == 2
        assert capsys.readouterr() == ("", "error: reference networks need --x (comma-separated reals)\n")

    @pytest.mark.parametrize("text, named", [
        ('{"n": 1', "invalid JSON at line 1: Expecting ',' delimiter"),
        ("[1, 2]", "network file must contain a JSON object"),
    ], ids=["invalid-json", "not-an-object"])
    def test_unreadable_network_file_is_named(self, tmp_path, capsys, text, named):
        path = tmp_path / "net.json"
        path.write_text(text)
        assert run("eval", "--network", path, "--x", "0.5") == 2
        assert capsys.readouterr() == ("", f"error: {path}: {named}\n")

    def test_zero_stream_length_is_usage_error(self, sine_net, capsys):
        assert run("eval", "--network", sine_net, "--x", "0.25", "--scnn", "--M", "0") == 2
        assert_one_line_error(capsys)

    def test_oversized_stream_length_is_usage_error(self, sine_net, capsys):
        assert run("eval", "--network", sine_net, "--x", "0.25", "--scnn", "--M", "99999999999") == 2
        err = capsys.readouterr().err
        assert "M=99999999999" in err and err.count("\n") == 1

    def test_boolean_dimension_is_usage_error(self, sine_net, tmp_path, capsys):
        doc = json.loads(sine_net.read_text())
        path = tmp_path / "net.json"
        path.write_text(json.dumps({**doc, "n": True}))
        assert run("eval", "--network", path, "--x", "0.25") == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scnn", [[], ["--scnn"]])
    def test_non_finite_point_is_usage_error(self, sine_net, capsys, x, scnn):
        assert run("eval", "--network", sine_net, f"--x={x}", *scnn) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --x must be finite") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--x", "2.5", "--M", "64"], ["--x", "0.5", "--seed", "-1"]],
                             ids=["beyond-input-scale", "negative-seed"])
    def test_refused_scnn_prints_nothing(self, sine_net, capsys, flags):
        # The reference value used to be printed before the stochastic pass was refused.
        assert run("eval", "--network", sine_net, "--scnn", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("network, flags, message", [
        ("sine_net", ["--x", "0.5", "--M", "0", "--mode", "mux", "--seed", "-5"], "--M is only used with --scnn"),
        ("sine_net", ["--x", "0.5", "--seed", "0"], "--seed is only used with --scnn"),
        ("sine_net", ["--x", "0.5", "--x-bits", "1"], "--x-bits is only used with binary networks"),
        ("bnn_file", ["--x-bits", "101100111000", "--x", "0.5"], "--x is only used with reference networks"),
        ("bnn_file", ["--x-bits", "101100111000", "--scnn"], "--scnn is only used with reference networks"),
    ], ids=["M-without-scnn", "default-seed-without-scnn", "x-bits-on-reference", "x-on-binary", "scnn-on-binary"])
    def test_ignored_flag_is_usage_error(self, request, capsys, network, flags, message):
        # A flag the pass would not read used to be dropped without a word.
        network = request.getfixturevalue(network)
        capsys.readouterr()  # what the fixture printed
        assert run("eval", "--network", network, *flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSweep:
    def test_deterministic_bytes_and_parallel(self, sine_net, tmp_path):
        base = ["sweep", "--network", sine_net, "--target", "sine",
                "--Ms", "16,64", "--trials", "30", "--epsilon", "0.3",
                "--grid-points", "5", "--seed", "31"]
        dirs = [tmp_path / d for d in ("a", "b", "c")]
        assert run(*base, "--out-dir", dirs[0]) == 0
        assert run(*base, "--out-dir", dirs[1]) == 0
        assert run(*base, "--jobs", "2", "--out-dir", dirs[2]) == 0
        blobs = [(d / "sweep.csv").read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_outputs_have_metadata_and_columns(self, sine_net, tmp_path):
        assert run("sweep", "--network", sine_net, "--target", "sine",
                   "--Ms", "16,64", "--trials", "30", "--epsilon", "0.3",
                   "--grid-points", "3", "--seed", "9", "--out-dir", tmp_path) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("tool=scbnn" in l for l in meta)
        assert any("seed=9" in l for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[0] == "M"
        assert "failure_rate" in header
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert "slope_median" in summary and "rows" in summary
        plot = (tmp_path / "sweep_plot.csv").read_text().splitlines()
        assert sum(1 for l in plot if not l.startswith("#")) == 3  # header + 2 rows

    def test_one_stream_length_writes_null_slopes(self, sine_net, tmp_path):
        # One M leaves the log-log slopes undefined; JSON has no NaN.
        assert run("sweep", "--network", sine_net, "--target", "sine", "--Ms", "16",
                   "--trials", "30", "--grid-points", "2", "--out-dir", tmp_path) == 0
        summary = load_json_object(tmp_path / "sweep_summary.json", "sweep summary")
        assert summary["slope_median"] is None and summary["slope_rms"] is None

    def test_zero_trials_is_config_error(self, sine_net, tmp_path):
        assert run("sweep", "--network", sine_net, "--target", "sine",
                   "--Ms", "16", "--trials", "0", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_config_value_is_usage_error(self, sine_net, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep": {"epsilon": %s}}' % value)
        assert run("sweep", "--network", sine_net, "--target", "sine", "--Ms", "16",
                   "--trials", "30", "--grid-points", "2", "--config", cfg,
                   "--out-dir", tmp_path / "o") == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o" / "sweep_summary.json").exists()

    def test_missing_network_file(self, tmp_path):
        assert run("sweep", "--network", tmp_path / "nope.json", "--target", "sine",
                   "--Ms", "16", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("sweep, key", [
        ({"Ms": 16}, "sweep.Ms"),
        ({"Ms": "16,64"}, "sweep.Ms"),
        ({"Ms": [16, 64.5]}, "sweep.Ms[1]"),
        ({"trials": [1]}, "sweep.trials"),
        ({"epsilon": "0.2"}, "sweep.epsilon"),
        ({"grid": None}, "sweep.grid"),
    ])
    def test_wrong_config_type_names_the_key(self, sine_net, tmp_path, capsys, sweep, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"Ms": [16], "trials": 30, "grid": 2, **sweep}}))
        assert run("sweep", "--network", sine_net, "--target", "sine", "--config", cfg,
                   "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} must be ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_config_values_of_the_right_type(self, sine_net, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 9, "mode": "mux", "target": {"name": "sine", "params": ["cycles=1"]},
            "sweep": {"Ms": [16, 64], "trials": 30, "epsilon": 1, "grid": 2},
        }))
        assert run("sweep", "--network", sine_net, "--config", cfg, "--out-dir", tmp_path / "o") == 0
        summary = json.loads((tmp_path / "o" / "sweep_summary.json").read_text())
        assert summary["epsilon"] == 1.0 and summary["mode"] == "mux"
        assert [r["M"] for r in summary["rows"]] == [16, 64]

    def test_oversized_stream_length_is_usage_error(self, sine_net, tmp_path, capsys):
        assert run("sweep", "--network", sine_net, "--target", "sine", "--Ms", "99999999999",
                   "--trials", "30", "--grid-points", "2", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "M=99999999999" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0"])
    def test_epsilon_not_positive_and_finite_is_usage_error(self, sine_net, tmp_path, capsys, epsilon):
        assert run("sweep", "--network", sine_net, "--target", "sine", "--Ms", "16", "--trials", "30",
                   "--grid-points", "2", f"--epsilon={epsilon}", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon must be positive and finite") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--jobs", "--grid-points"])
    def test_zero_is_usage_error_not_default(self, sine_net, tmp_path, capsys, flag):
        assert run("sweep", "--network", sine_net, "--target", "sine", "--Ms", "16",
                   "--trials", "30", flag, "0", "--out-dir", tmp_path) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "sweep.csv").exists()


class TestBound:
    def test_prints_reference_bound(self, capsys):
        assert run("bound", "--n", "2", "--N", "10", "--epsilon", "0.1", "--delta", "0.1") == 0
        assert "M_min = 900001" in capsys.readouterr().out

    def test_delta_zero_rejected(self):
        assert run("bound", "--n", "2", "--N", "10", "--epsilon", "0.1", "--delta", "0") == 2

    @pytest.mark.parametrize("flag, value", [("--alpha-sum", "inf"), ("--delta", "nan")])
    def test_non_finite_input_is_one_line_usage_error(self, flag, value, capsys):
        argv = {"--n": "1", "--N": "2", "--epsilon": "0.1", "--delta": "0.1", flag: value}
        assert run("bound", *[t for kv in argv.items() for t in kv]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("flag", ["--trials", "--grid-points"])
    def test_zero_validation_size_is_usage_error(self, sine_net, tmp_path, capsys, flag):
        assert run("bound", "--n", "1", "--N", "8", "--epsilon", "1.0", "--delta", "0.25",
                   "--alpha-sum", "30", "--validate", "--network", sine_net, "--target", "sine",
                   flag, "0", "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "bound_report.json").exists()

    @pytest.mark.parametrize("query, named", [
        (["--n", "2", "--N", "8", "--alpha-sum", "30"], "network's n = 1"),
        (["--n", "1", "--N", "4", "--alpha-sum", "30"], "network's N = 8"),
        (["--n", "1", "--N", "8"], "A = 8 (from --N) is below the network's sum |alpha| = {}"),
        (["--n", "1", "--N", "8", "--alpha-sum", "29"], "A = 29.0 (from --alpha-sum) is below the network's sum |alpha| = {}"),
    ], ids=["n", "N", "A-is-N", "alpha-sum"])
    def test_query_must_cover_the_network(self, sine_net, tmp_path, capsys, query, named):
        alpha_sum = json.loads((sine_net.parent / "fit_report.json").read_text())["alpha_sum"]
        assert run("bound", *query, "--epsilon", "1.0", "--delta", "0.25", "--validate",
                   "--network", sine_net, "--target", "sine", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named.format(alpha_sum) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--network", "nope.json", "--target", "nope", "--trials", "0", "--mode", "mux", "--out-dir", "bx"], "--network"),
        (["--target-param", "cycles=2"], "--target-param"),
        (["--grid-points", "9", "--seed", "0"], "--grid-points"),
        (["--seed", "0"], "--seed"),
        (["--out-dir", "bx"], "--out-dir"),
    ], ids=["many", "target-param", "default-grid", "default-seed", "out-dir"])
    def test_validation_flag_without_validate_is_usage_error(self, tmp_path, capsys, flags, named):
        # Such flags used to be ignored: M_min printed, exit 0, no out dir made.
        flags = [str(tmp_path / f) if f == "bx" else f for f in flags]
        assert run("bound", "--n", "1", "--N", "2", "--epsilon", "0.5", "--delta", "0.25", *flags) == 2
        assert capsys.readouterr() == ("", f"error: {named} is only used with --validate\n")
        assert not (tmp_path / "bx").exists()

    @pytest.mark.parametrize("changes", [
        {"--network": "bnn_file"}, {"--network": "bundle"}, {"--target": "nope"}, {"--n": "2"},
        {"--alpha-sum": "29"}, {"--epsilon": "0.01"}, {"--target": None},
    ], ids=["binary-net", "bundle", "unknown-target", "n", "A-below-alpha-sum", "M-past-cap", "no-target"])
    def test_refused_validation_prints_nothing(self, request, sine_net, bundle_doc, tmp_path, capsys, changes):
        # M_min used to be printed before the validation inputs were checked.
        argv = {"--n": "1", "--N": "8", "--epsilon": "1.0", "--delta": "0.25", "--alpha-sum": "30",
                "--network": sine_net, "--target": "sine", "--trials": "2", "--grid-points": "2",
                "--out-dir": tmp_path / "o", **changes}
        if argv["--network"] == "bundle":
            argv["--network"] = tmp_path / "scnn_streams.json"
            argv["--network"].write_text(json.dumps(bundle_doc))
        elif argv["--network"] == "bnn_file":
            argv["--network"] = request.getfixturevalue("bnn_file")
        capsys.readouterr()  # what the fixtures printed
        assert run("bound", "--validate", *[t for kv in argv.items() if kv[1] is not None for t in kv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_validate(self, sine_net, tmp_path, capsys):
        fit_report = json.loads((sine_net.parent / "fit_report.json").read_text())
        alpha_sum = max(2.0, fit_report["alpha_sum"])
        code = run("bound", "--n", "1", "--N", "8", "--epsilon", "1.0", "--delta", "0.25",
                   "--alpha-sum", alpha_sum, "--validate", "--network", sine_net,
                   "--target", "sine", "--trials", "10", "--grid-points", "5",
                   "--seed", "3", "--out-dir", tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        report = json.loads((tmp_path / "bound_report.json").read_text())
        assert report["failure_rate"] <= report["threshold"]

    def test_validate_mux_memory_at_long_M(self, tmp_path):
        # epsilon 0.5, delta 0.25, alpha_sum 256 give M_min = 2^22 + 1. An
        # N = 2 net encodes six 512 KiB streams per point; a MUX lottery
        # drawn whole would add 32 MiB of int64 selections.
        assert run("fit", "--target", "linear", "--N", "2", "--seed", "1", "--out-dir", tmp_path / "net") == 0
        tracemalloc.start()
        try:
            code = run("bound", "--n", "1", "--N", "2", "--epsilon", "0.5", "--delta", "0.25",
                       "--alpha-sum", "256", "--validate", "--network", tmp_path / "net" / "network.json",
                       "--target", "linear", "--mode", "mux", "--trials", "1", "--grid-points", "2",
                       "--seed", "3", "--out-dir", tmp_path / "bound")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads((tmp_path / "bound" / "bound_report.json").read_text())["M"] == 2**22 + 1
        assert peak <= 8 * 2**20


class TestConvert:
    def test_binarize(self, sine_net, tmp_path, capsys):
        assert run("convert", "--network", sine_net, "--binarize",
                   "--seed", "5", "--out-dir", tmp_path) == 0
        doc = json.loads((tmp_path / "binary_network.json").read_text())
        assert doc["binary"] is True and doc["m"] == 1

    def test_round_trip_bit_identical(self, bnn_file, tmp_path, capsys):
        a = tmp_path / "scnn"
        b = tmp_path / "back"
        assert run("convert", "--network", bnn_file, "--to-scnn", "4",
                   "--seed", "2", "--out-dir", a) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert run("convert", "--network", a / "scnn_streams.json", "--to-bnn",
                   "--out-dir", b) == 0
        orig = json.loads(bnn_file.read_text())
        back = json.loads((b / "binary_network.json").read_text())
        for k in ("binary_weights", "binary_biases", "m", "N", "output_weights", "activation"):
            assert orig[k] == back[k]

    def test_to_scnn_converts_once_and_writes_the_bundle_it_checked(self, bnn_file, tmp_path, monkeypatch):
        bundles, to_scnn = [], transform.bnn_to_scnn

        def recorded(bnet, M):
            bundles.append(to_scnn(bnet, M))
            return bundles[-1]

        monkeypatch.setattr(transform, "bnn_to_scnn", recorded)
        monkeypatch.setattr(cli, "bnn_to_scnn", recorded, raising=False)
        assert run("convert", "--network", bnn_file, "--to-scnn", "4", "--seed", "2", "--out-dir", tmp_path) == 0
        assert len(bundles) == 1
        doc = json.loads((tmp_path / "scnn_streams.json").read_text())
        doc.pop("meta")
        assert doc == transform.bundle_to_dict(bundles[0])

    def test_to_scnn_failure_exits_1_and_writes_the_bundle_it_checked(self, bnn_file, tmp_path, capsys, monkeypatch):
        reports, check, apc_ones = [], cli.preactivation_equivalence_check, transform.apc_ones

        def recorded(*args):
            reports.append(check(*args))
            return reports[-1]

        monkeypatch.setattr(transform, "apc_ones", lambda *args: apc_ones(*args) + np.array([0, 1, 0]))  # unit 1 is off
        monkeypatch.setattr(cli, "preactivation_equivalence_check", recorded)
        assert run("convert", "--network", bnn_file, "--to-scnn", "4", "--seed", "2", "--out-dir", tmp_path) == 1
        out, err = capsys.readouterr()
        units = out.splitlines()[:3]
        assert [line.split()[-1] for line in units] == ["[PASS]", "[FAIL]", "[PASS]"] and units[1].startswith("unit 1: ")
        assert err == "equivalence check FAILED\n"
        doc = json.loads((tmp_path / "scnn_streams.json").read_text())
        doc.pop("meta")
        assert len(reports) == 1 and doc == transform.bundle_to_dict(reports[0].bundle)

    def test_non_divisor_chunk_is_error(self, bnn_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("convert", "--network", bnn_file, "--to-scnn", "5",
                   "--out-dir", out) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("network, flags, message", [
        ("bnn_file", ["--binarize"], "--binarize expects a reference network file"),
        ("sine_net", ["--to-bnn"], "--to-bnn expects an scnn-streams bundle file"),
        ("sine_net", ["--to-scnn", "4"], "--to-scnn expects a binary network file"),
    ], ids=["binarize", "to-bnn", "to-scnn"])
    def test_wrong_input_kind_leaves_no_out_dir(self, request, tmp_path, capsys, network, flags, message):
        out = tmp_path / "o"
        assert run("convert", "--network", request.getfixturevalue(network), *flags, "--out-dir", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_needs_a_mode(self, bnn_file, tmp_path):
        assert run("convert", "--network", bnn_file, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("network, flags", [
        ("sine_net", ["--binarize", "--to-scnn", "4"]),
        ("sine_net", ["--binarize", "--to-bnn"]),
        ("bnn_file", ["--to-scnn", "4", "--to-bnn"]),
        ("sine_net", ["--binarize", "--to-scnn", "4", "--to-bnn"]),
    ])
    def test_more_than_one_mode_is_usage_error(self, request, tmp_path, capsys, network, flags):
        out = tmp_path / "o"
        assert run("convert", "--network", request.getfixturevalue(network), *flags, "--out-dir", out) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("bias", [1.5, True, 9.223372036854776e18, 3])
    def test_binary_bias_must_be_plus_or_minus_one(self, bnn_file, tmp_path, capsys, bias):
        doc = json.loads(bnn_file.read_text())
        doc["binary_biases"][2] = bias
        path = tmp_path / "bnet.json"
        path.write_text(json.dumps(doc))
        assert run("convert", "--network", path, "--to-scnn", "4", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "binary_biases[2]" in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "scnn_streams.json").exists()

    def test_binary_weight_row_must_be_a_string(self, bnn_file, tmp_path, capsys):
        # m = 12: the digits of 1230 would read as a valid two-byte hex row.
        doc = json.loads(bnn_file.read_text())
        doc["binary_weights"][1] = 1230
        path = tmp_path / "bnet.json"
        path.write_text(json.dumps(doc))
        assert run("convert", "--network", path, "--to-scnn", "4", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "binary_weights[1]" in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "scnn_streams.json").exists()

    @pytest.mark.parametrize("spelling", [" {}", "{} ", "\t{}\n", "  {}  "])
    def test_whitespace_around_a_binary_weight_row_is_ignored(self, bnn_file, spelling):
        doc = json.loads(bnn_file.read_text())
        want = binary_network_from_dict(doc).binary_weights
        doc["binary_weights"] = [spelling.format(row) for row in doc["binary_weights"]]
        assert np.array_equal(binary_network_from_dict(doc).binary_weights, want)

    @pytest.mark.parametrize("row", [" abcg", "abcf ", "ab c", " a bc ", "abc0 0", "abcdef"])
    def test_bad_binary_weight_row_is_quoted_as_written(self, bnn_file, tmp_path, capsys, row):
        # m = 12: g is not a hex digit, f sets pad bits, no whitespace may sit inside a row, and 3 bytes are 1 too many.
        doc = json.loads(bnn_file.read_text())
        doc["binary_weights"][2] = row
        path = tmp_path / "bnet.json"
        path.write_text(json.dumps(doc))
        assert run("convert", "--network", path, "--to-scnn", "4", "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: binary_weights[2]: ") and err.endswith(f" in {row!r}\n")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def bundle_doc(bnn_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run("convert", "--network", bnn_file, "--to-scnn", "4", "--out-dir", out) == 0
    return json.loads((out / "scnn_streams.json").read_text())


class TestBundleHeaders:
    """The bundle's M, n and N headers must agree with its streams and lists
    (bnn_file chunked at M=4: n=3 streams per unit, N=3 units)."""

    def _to_bnn(self, doc, tmp_path):
        path = tmp_path / "scnn_streams.json"
        path.write_text(json.dumps(doc))
        return run("convert", "--network", path, "--to-bnn", "--out-dir", tmp_path / "o")

    def test_consistent_bundle_converts(self, bundle_doc, tmp_path):
        assert self._to_bnn(bundle_doc, tmp_path) == 0

    @pytest.mark.parametrize("field, value", [("M", 3), ("n", 2), ("N", 4), ("M", "4")])
    def test_wrong_header_is_usage_error(self, bundle_doc, tmp_path, capsys, field, value):
        assert self._to_bnn({**bundle_doc, field: value}, tmp_path) == 2
        assert_one_line_error(capsys)

    def test_bias_stream_longer_than_M(self, bundle_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(bundle_doc))
        doc["bias_streams"][0] = "M:5;enc:b;f8"
        assert self._to_bnn(doc, tmp_path) == 2
        assert_one_line_error(capsys)

    def test_non_finite_output_weight(self, bundle_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(bundle_doc))
        doc["output_weights"][1] = float("nan")
        assert self._to_bnn(doc, tmp_path) == 2
        err = capsys.readouterr().err
        # Rejected by the JSON reader, which names the file and the token.
        assert err.startswith(f"error: {tmp_path / 'scnn_streams.json'}: ") and "'NaN'" in err
        assert err.count("\n") == 1


#: One argv per command that reads --network, with the file kinds it takes.
NETWORK_ARGV = {
    "sweep": (("sweep", "--target", "sine", "--Ms", "4", "--trials", "30", "--grid-points", "2"),
              "a reference network file"),
    "bound": (("bound", "--n", "1", "--N", "3", "--epsilon", "1.0", "--delta", "0.25", "--alpha-sum", "30",
               "--validate", "--target", "sine", "--trials", "2", "--grid-points", "2"),
              "a reference network file"),
    "eval": (("eval", "--x", "0.5"), "a reference network file or a binary network file"),
}


class TestNetworkKinds:
    """Every command that reads --network names the kinds it takes when
    given a file of another kind. sweep and bound read any file as a
    reference network, so a binary network or a bundle used to fail on a
    missing field."""

    @pytest.mark.parametrize("command, kind", [
        ("sweep", "bnn_file"), ("sweep", "bundle"), ("bound", "bnn_file"), ("bound", "bundle"), ("eval", "bundle"),
    ])
    def test_other_kind_exits_2_and_writes_nothing(self, request, bundle_doc, tmp_path, capsys, command, kind):
        if kind == "bundle":
            network = tmp_path / "scnn_streams.json"
            network.write_text(json.dumps(bundle_doc))
        else:
            network = request.getfixturevalue(kind)
        argv, what = NETWORK_ARGV[command]
        out = () if command == "eval" else ("--out-dir", tmp_path / "o")
        assert run(*argv, "--network", network, *out) == 2
        assert capsys.readouterr().err == f"error: --network expects {what}\n"
        assert not (tmp_path / "o").exists()


class TestRepeatedKeys:
    """A key given twice in one JSON object exits 2 naming the file and the
    key; the last value used to win without a word."""

    def test_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "target": {"name": "sine"}, "seed": 5}')
        assert run("fit", "--config", cfg, "--N", "4", "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {cfg}: repeated key 'seed'\n"
        assert not (tmp_path / "o").exists()

    def test_weight_file(self, sine_net, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(sine_net.read_text().replace('"N": 8,', '"N": 8, "N": 8,', 1))
        assert run("eval", "--network", path, "--x", "0.5") == 2
        assert capsys.readouterr() == ("", f"error: {path}: repeated key 'N'\n")


#: Stands for "a list of the wrong length": the list holding the field loses
#: one entry, or a single number becomes a list of two.
WRONG_LENGTH = "wrong length"


class TestNumberRule:
    """Every number field of every file kind, and a config float, is a JSON
    int or float, not a bool or a string, finite as a float64. Anything else
    exits 2 with one line naming the file and the field."""

    @pytest.mark.parametrize("value", [True, "0.25", 10**400, WRONG_LENGTH], ids=["true", "str", "1e400", "length"])
    @pytest.mark.parametrize("kind, path, named", [
        ("reference", ("hidden_weights", 1, 0), "field 'hidden_weights[1]"),
        ("reference", ("hidden_biases", 2), "field 'hidden_biases"),
        ("reference", ("output_weights", 3), "field 'output_weights"),
        ("reference", ("prescale", "weights"), "prescale: field 'weights'"),
        ("reference", ("prescale", "inputs"), "prescale: field 'inputs'"),
        ("reference", ("prescale", "bias"), "prescale: field 'bias'"),
        ("binary", ("output_weights", 1), "field 'output_weights"),
        ("bundle", ("output_weights", 1), "field 'output_weights"),
        ("config", ("sweep", "epsilon"), "config sweep.epsilon"),
    ])
    def test_field_is_named(self, sine_net, bnn_file, bundle_doc, tmp_path, capsys, kind, path, named, value):
        doc, argv = {
            "reference": (json.loads(sine_net.read_text()), ["eval", "--x", "0.25"]),
            "binary": (json.loads(bnn_file.read_text()), ["convert", "--to-scnn", "4"]),
            "bundle": (json.loads(json.dumps(bundle_doc)), ["convert", "--to-bnn"]),
            "config": ({"sweep": {"Ms": [16], "trials": 30, "grid": 2, "epsilon": 0.2}},
                       ["sweep", "--network", sine_net, "--target", "sine"]),
        }[kind]
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value != WRONG_LENGTH:
            node[last] = value
        elif isinstance(last, int):
            del node[last]
        else:
            node[last] = [0.25, 0.25]
        file = tmp_path / "in.json"
        file.write_text(json.dumps(doc))
        flag = "--config" if kind == "config" else "--network"
        if argv[0] != "eval":
            argv = [*argv, "--out-dir", tmp_path / "o"]
        assert run(*argv, flag, file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config " if kind == "config" else f"error: {file}: ")
        assert named in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("prescale, named", [
        ({"weights": 1.0, "inputs": 1.0, "bias": 2.0}, "prescale 'bias' is 2.0, not weights * inputs = 1.0"),
        ({"weights": 0.0, "inputs": 1.0, "bias": 0.0}, "prescale 'weights' must be > 0, got 0.0"),
        ({"weights": 1.0, "inputs": -1.0, "bias": -1.0}, "prescale 'inputs' must be > 0, got -1.0"),
    ])
    def test_prescale_rule(self, tmp_path, capsys, prescale, named):
        # forward_scnn un-scales the whole preactivation by weights * inputs,
        # so this ReLU net would give about 0.62 against its reference 1.0.
        file = tmp_path / "net.json"
        file.write_text(json.dumps({
            "name": "relu", "n": 1, "N": 1, "activation": "relu", "hidden_weights": [[0.5]],
            "hidden_biases": [0.75], "output_weights": [1.0], "prescale": prescale,
        }))
        assert run("eval", "--network", file, "--x", "0.5", "--scnn") == 2
        assert capsys.readouterr().err == f"error: {file}: {named}\n"


    @pytest.mark.parametrize("argv", [
        ["eval", "--x", "0.5"],
        ["eval", "--x", "0.5", "--scnn"],
        ["sweep", "--target", "sine", "--Ms", "16", "--trials", "30", "--grid-points", "2"],
    ], ids=["eval", "eval-scnn", "sweep"])
    @pytest.mark.parametrize("field, value, named", [
        ("hidden_weights", [[3.0]], "field 'hidden_weights[0][0]' is 3.0, beyond the weights pre-scale factor 1.0"),
        ("hidden_biases", [-1.5], "field 'hidden_biases[0]' is -1.5, beyond the bias pre-scale factor 1.0"),
    ], ids=["weight", "bias"])
    def test_value_beyond_prescale(self, tmp_path, capsys, argv, field, value, named):
        # No stream encodes such a value; the file is rejected as it loads.
        doc = {"name": "n", "n": 1, "N": 1, "activation": "tanh", "hidden_weights": [[0.5]],
               "hidden_biases": [0.25], "output_weights": [1.0],
               "prescale": {"weights": 1.0, "inputs": 1.0, "bias": 1.0}}
        file = tmp_path / "net.json"
        file.write_text(json.dumps({**doc, field: value}))
        if argv[0] == "sweep":
            argv = [*argv, "--out-dir", tmp_path / "o"]
        assert run(*argv, "--network", file) == 2
        assert capsys.readouterr().err == f"error: {file}: {named}\n"
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--x", "0.5"], "--network"),
        (["fit", "--target", "sine", "--N", "4"], "--config"),
    ], ids=["network", "config"])
    def test_deep_nesting_is_named(self, tmp_path, capsys, argv, flag):
        file = tmp_path / "deep.json"
        file.write_text("[" * 100_000)
        if argv[0] == "fit":
            argv = [*argv, "--out-dir", tmp_path / "o"]
        assert run(*argv, flag, file) == 2
        assert capsys.readouterr().err == f"error: {file}: JSON nested too deeply\n"
        assert not (tmp_path / "o").exists()


class TestFlagLists:
    """A comma list or bit string flag that does not parse exits 2 with one
    line naming the flag and quoting the value as given."""

    @pytest.mark.parametrize("argv, flag, value", [
        (["sweep", "--network", "sine_net", "--target", "sine"], "--Ms", "1,,2"),
        (["eval", "--network", "sine_net"], "--x", "0.5,abc"),
        (["eval", "--network", "bnn_file"], "--x-bits", "1a01"),
        (["fit", "--target", "sine"], "--target-param", "cycles=abc"),
    ])
    def test_flag_is_named(self, request, tmp_path, capsys, argv, flag, value):
        argv = [request.getfixturevalue(a) if a.endswith(("_net", "_file")) else a for a in argv]
        if argv[0] != "eval":
            argv += ["--out-dir", tmp_path / "o"]
        assert run(*argv, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and err.endswith(f", got {value!r}\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module", params=[4, 12])
def bundle_at(bnn_file, tmp_path_factory, request):
    """bnn_file chunked at M=4 (one byte, four pad bits per stream) and at
    M=12 (two bytes, four pad bits)."""
    out = tmp_path_factory.mktemp(f"bundle{request.param}")
    assert run("convert", "--network", bnn_file, "--to-scnn", request.param, "--out-dir", out) == 0
    return request.param, json.loads((out / "scnn_streams.json").read_text())


def _set_low_pad_bit(line):
    return line[:-1] + format(int(line[-1], 16) | 1, "x")


CORRUPTIONS = {
    "bad hex": lambda line: line[:-1] + "g",
    "too long": lambda line: line + "00",
    "too short": lambda line: line[:-2],
    "pad bit": _set_low_pad_bit,
    "wrong M": lambda line: line.replace("M:", "M:1", 1),
    "not a string": lambda line: 7,
    "unipolar": lambda line: line.replace(";enc:b;", ";enc:u;"),
}


class TestCorruptStreamLine:
    """One corrupted stream line exits 2 with a one-line message naming that
    line and giving the reason the codec gives for it alone."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(CORRUPTIONS)))
    def test_same_message_as_line_parser(self, bundle_at, data, kind):
        M, doc = bundle_at
        doc = json.loads(json.dumps(doc))
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, doc["N"] - 1))
            j = data.draw(st.integers(0, doc["n"] - 1))
            lines, index, field = doc["weight_streams"][i], j, f"weight_streams[{i}][{j}]"
        else:
            i = data.draw(st.integers(0, doc["N"] - 1))
            lines, index, field = doc["bias_streams"], i, f"bias_streams[{i}]"
        lines[index] = CORRUPTIONS[kind](lines[index])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scnn_streams.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(StreamFormatError) as expected:
                from_hex_lines([lines[index]], M, Encoding.BIPOLAR)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("convert", "--network", path, "--to-bnn", "--out-dir", Path(tmp) / "o")
            assert code == 2
            assert err.getvalue() == f"error: {path}: {field}: {expected.value}\n"
            assert not (Path(tmp) / "o" / "binary_network.json").exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.just(10**400)
    | (st.integers(-20, 20) | st.floats(allow_nan=False, allow_infinity=False)).map(str)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12)
    | st.builds("M:{};enc:{};{}".format, st.integers(-1, 13), st.sampled_from("ubx"),
                st.text("0123456789abcdefg", max_size=5)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def mutate(doc, data):
    """Replace or delete one node of a JSON document, at any depth."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(json_values)
        return doc


class TestParserFuzz:
    """Mutated bundle, binary-weight, reference-weight and config documents
    exit 0 or 2, never with a traceback."""

    def _run_mutated(self, doc, data, *argv):
        doc = mutate(json.loads(json.dumps(doc)), data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.json"
            path.write_text(json.dumps(doc))
            assert run("convert", "--network", path, *argv, "--out-dir", Path(tmp) / "o") in (0, 2)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bundle(self, bundle_doc, data):
        self._run_mutated(bundle_doc, data, "--to-bnn")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_binary_weight_file(self, bnn_file, data):
        self._run_mutated(json.loads(bnn_file.read_text()), data, "--to-scnn", "4")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reference_weight_file(self, sine_net, data):
        doc = mutate(json.loads(sine_net.read_text()), data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "network.json"
            path.write_text(json.dumps(doc))
            assert run("eval", "--network", path, "--x", "0.25", "--scnn", "--M", "16") in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sweep_config(self, sine_net, data):
        doc = mutate({
            "seed": 3, "mode": "apc", "target": {"name": "sine", "params": ["cycles=1"]},
            "sweep": {"Ms": [4, 8], "trials": 30, "epsilon": 0.3, "grid": 2},
        }, data)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            assert run("sweep", "--network", sine_net, "--config", cfg, "--out-dir", Path(tmp) / "o") in (0, 2)


class TestEnergy:
    def test_layer_counts(self, capsys, tmp_path):
        assert run("energy", "--n", "4", "--M", "64", "--N", "8", "--mode", "apc",
                   "--out-dir", tmp_path) == 0
        out = capsys.readouterr().out
        assert "xnor_ops: 2048" in out
        doc = json.loads((tmp_path / "energy.json").read_text())
        assert doc["xnor_ops"] == 2048
        csv_lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert any(l.startswith("xnor_ops,2048") for l in csv_lines)

    def test_bnn_parameterization_matches(self, capsys):
        assert run("energy", "--bnn", "--m", "256", "--N", "8", "--mode", "apc") == 0
        assert "xnor_ops: 2048" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--n", "4"], "energy needs --n, --M and --N (or --bnn --m --N)"),
        (["--bnn", "--N", "2"], "--bnn needs --m and --N"),
        (["--bnn", "--m", "8"], "--bnn needs --m and --N"),
    ], ids=["layer", "bnn-without-m", "bnn-without-N"])
    def test_missing_args(self, capsys, flags, message):
        assert run("energy", *flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--n", "1", "--M", "4", "--N", "2", "--m", "7"], "--m is only used with --bnn"),
        (["--bnn", "--m", "8", "--N", "2", "--n", "1"], "--n is not used with --bnn"),
        (["--bnn", "--m", "8", "--N", "2", "--M", "4"], "--M is not used with --bnn"),
    ], ids=["m-without-bnn", "n-with-bnn", "M-with-bnn"])
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        assert run("energy", *flags, "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()
