"""`meta.config_hash` of every output-writing command.

The matrix pins the hash of each argv; it was recorded before the commands
resolved their settings into one run dict, so it shows that refactor moved
no hash. The guard checks that each flag an argv sets reaches the hash, or
changes no output byte, or is a gap named in `cli.HASH_GAPS`. A flag
given at its parser default hashes as the flag left out.
"""

import json
from pathlib import Path

import pytest

from scbnn import cli
from scbnn.cli import main
from scbnn.netcore import FIT_NOISE_PENALTY, FIT_RIDGE


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def config_hash(out: Path) -> str:
    """The one config_hash that every file in `out` carries."""
    hashes = set()
    for path in out.iterdir():
        if path.suffix == ".json":
            hashes.add(json.loads(path.read_text())["meta"]["config_hash"])
        else:
            hashes.update(line.split("=", 1)[1] for line in path.read_text().splitlines()
                          if line.startswith("# config_hash="))
    assert len(hashes) == 1, hashes
    return hashes.pop()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files by name: two fitted nets, a binarized net and a stream
    bundle."""
    d = tmp_path_factory.mktemp("inputs")
    run("fit", "--target", "linear", "--N", "2", "--seed", "1", "--out-dir", d / "net1")
    run("fit", "--target", "linear", "--n", "4", "--N", "3", "--grid-points", "3", "--seed", "4",
        "--out-dir", d / "net4")
    run("convert", "--network", d / "net4" / "network.json", "--binarize", "--seed", "9", "--out-dir", d / "bin")
    run("convert", "--network", d / "bin" / "binary_network.json", "--to-scnn", "2", "--out-dir", d / "scnn")
    return {
        "net1": d / "net1" / "network.json",
        "net4": d / "net4" / "network.json",
        "bin": d / "bin" / "binary_network.json",
        "scnn": d / "scnn" / "scnn_streams.json",
    }


BOUND = ("bound", "--n", "1", "--N", "2", "--epsilon", "0.9", "--delta", "0.5", "--validate",
         "--network", "{net1}", "--target", "linear", "--trials", "2", "--grid-points", "2", "--seed", "3")

#: argv (without --out-dir; "{name}" is an input file) -> its config_hash.
MATRIX = {
    "fit-n1-flags": (("fit", "--target", "sine", "--N", "4", "--grid-points", "16", "--seed", "2"),
                     "95e29c11c0719812"),
    "fit-n1-defaults": (("fit", "--target", "linear", "--N", "2", "--seed", "1"), "6d9e0efedd963968"),
    "fit-n2-flags": (("fit", "--target", "bump", "--n", "2", "--N", "4", "--grid-points", "5",
                      "--activation", "sigmoid", "--edge-fraction", "0.25", "--noise-penalty", "0.01",
                      "--ridge", "1e-6", "--seed", "3"), "96e7fe2314fc1a60"),
    "fit-n2-default-grid": (("fit", "--target", "linear", "--n", "2", "--N", "3", "--seed", "5"),
                            "2432f28a2d4533e6"),
    "fit-target-param": (("fit", "--target", "sine", "--target-param", "cycles=2", "--N", "4",
                          "--grid-points", "16", "--seed", "2"), "b99b8ce168e85a4b"),
    "sweep-flags": (("sweep", "--network", "{net1}", "--target", "linear", "--Ms", "4,16", "--trials", "30",
                     "--grid-points", "3", "--epsilon", "0.2", "--mode", "mux", "--seed", "5"),
                    "704f4812fef643b8"),
    "bound-alpha-sum": ((*BOUND, "--alpha-sum", "0.75"), "4063b4700f94c4de"),
    # bound leaves --mode out of its hash (a gap in cli.HASH_GAPS), so both modes hash alike.
    "bound-alpha-sum-mux": ((*BOUND, "--alpha-sum", "0.75", "--mode", "mux"), "4063b4700f94c4de"),
    "bound-no-alpha-sum": (BOUND, "0b19c543edec5a43"),
    "convert-binarize": (("convert", "--network", "{net4}", "--binarize", "--seed", "9"), "86b3ca3991c7902f"),
    "convert-to-scnn": (("convert", "--network", "{bin}", "--to-scnn", "2"), "72651c530c4e91ca"),
    "convert-to-bnn": (("convert", "--network", "{scnn}", "--to-bnn", "--seed", "4"), "31719cafe9f4308f"),
    "energy": (("energy", "--n", "2", "--M", "16", "--N", "3", "--mode", "mux"), "31334bbed194e095"),
    "energy-bnn": (("energy", "--bnn", "--m", "8", "--N", "3"), "c1538086eea6aac2"),
}


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_config_hash_is_pinned(inputs, tmp_path, case):
    argv, expected = MATRIX[case]
    run(*(a.format(**inputs) for a in argv), "--out-dir", tmp_path)
    assert config_hash(tmp_path) == expected


#: Flags that change no output byte: where files go, the worker count, and
#: `bound --validate`, without which bound writes no file.
NO_BYTE_FLAGS = {"out_dir", "jobs", "validate"}

#: The run key a flag's value is held under, where the names differ.
RUN_KEY = {
    "grid_points": "grid",
    "target_param": "target_params",
    "binarize": "mode",
    "to_scnn": "M",
    "to_bnn": "mode",
}

#: One argv per output-writing command (and convert mode) setting every
#: flag that command takes.
GUARD = {
    "fit": ("fit", "--target", "sine", "--target-param", "cycles=2", "--n", "1", "--N", "3",
            "--grid-points", "9", "--activation", "sigmoid", "--edge-fraction", "0.25",
            "--noise-penalty", "0.01", "--ridge", "1e-6", "--name", "alpha", "--seed", "2"),
    "sweep": ("sweep", "--network", "{net1}", "--target", "sine", "--target-param", "cycles=0.5",
              "--Ms", "2,8", "--trials", "30", "--epsilon", "0.2", "--grid-points", "2", "--mode", "mux",
              "--jobs", "1", "--seed", "5"),
    "bound": ("bound", "--n", "1", "--N", "2", "--epsilon", "0.9", "--delta", "0.5", "--alpha-sum", "0.75",
              "--validate", "--network", "{net1}", "--target", "sine", "--target-param", "cycles=0.5",
              "--trials", "2", "--grid-points", "2", "--mode", "mux", "--seed", "3"),
    "convert-binarize": ("convert", "--network", "{net4}", "--binarize", "--seed", "9"),
    "convert-to-scnn": ("convert", "--network", "{bin}", "--to-scnn", "2", "--seed", "1"),
    "convert-to-bnn": ("convert", "--network", "{scnn}", "--to-bnn", "--seed", "1"),
    "energy": ("energy", "--n", "2", "--M", "16", "--N", "3", "--mode", "mux"),
    "energy-bnn": ("energy", "--bnn", "--m", "8", "--N", "3", "--mode", "mux"),
}


@pytest.mark.parametrize("case", sorted(GUARD))
def test_every_flag_reaches_the_hash(inputs, tmp_path, monkeypatch, case):
    argv = [*(a.format(**inputs) for a in GUARD[case]), "--out-dir", str(tmp_path)]
    received = []
    metadata = cli._metadata
    monkeypatch.setattr(cli, "_metadata", lambda run: received.append(dict(run)) or metadata(run))
    assert main(argv) in (0, 1)  # a bound FAIL writes its report too
    (run,) = received
    gaps = cli.HASH_GAPS.get(run["command"], {})
    hashed = {k: v for k, v in run.items() if gaps.get(k) != cli.LEFT_OUT}
    assert config_hash(tmp_path) == cli._config_hash(hashed)
    parsed = cli._build_parser().parse_args(argv)
    for dest in (a[2:].replace("-", "_") for a in argv if a.startswith("--")):
        if dest in NO_BYTE_FLAGS:
            continue
        key = "input" if (run["command"], dest) == ("convert", "network") else RUN_KEY.get(dest, dest)
        assert key in hashed or key in gaps, f"--{dest} is neither hashed nor a named gap"
        if key == dest and key not in gaps:  # held as the flag gave it (--Ms as a list)
            held = ",".join(map(str, run[key])) if isinstance(run[key], list) else run[key]
            assert held == getattr(parsed, dest), dest


#: The default of each `fit` and `sweep` flag that has one, as the README
#: and the parser state it, and an argv that leaves every such flag out.
DEFAULTS = {
    "fit": (("fit", "--target", "linear", "--grid-points", "5"), {
        "--seed": "0", "--n": "1", "--N": "32", "--activation": "tanh", "--edge-fraction": "0.5",
        "--noise-penalty": repr(FIT_NOISE_PENALTY), "--ridge": repr(FIT_RIDGE)}),
    "sweep": (("sweep", "--network", "{net1}", "--target", "linear", "--Ms", "4"), {
        "--seed": "0", "--trials": "200", "--epsilon": "0.15", "--grid-points": "17", "--mode": "apc"}),
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in DEFAULTS.items() for f in flags],
                         ids=lambda v: v.lstrip("-"))
def test_a_flag_at_its_default_moves_no_hash(inputs, tmp_path, command, flag):
    # Each default is stated once, in the parser: a flag left out and the
    # same flag given at its default make one run, so one hash.
    argv, flags = DEFAULTS[command]
    argv = [a.format(**inputs) for a in argv]
    run(*argv, "--out-dir", tmp_path / "left-out")
    run(*argv, flag, flags[flag], "--out-dir", tmp_path / "given")
    assert config_hash(tmp_path / "given") == config_hash(tmp_path / "left-out")


def test_name_is_hashed_when_given(tmp_path):
    # The names used to share the no-name run's hash while writing different bytes.
    argv = ("fit", "--target", "sine", "--N", "4", "--seed", "2")
    hashes = {}
    for name in (None, "alpha", "beta"):
        out = tmp_path / str(name)
        run(*argv, *(("--name", name) if name else ()), "--out-dir", out)
        hashes[name] = config_hash(out)
        assert json.loads((out / "network.json").read_text())["name"] == (name or "sine-n1-N4")
    assert hashes[None] == "aa07ebcd135b201f"
    assert len(set(hashes.values())) == 3
