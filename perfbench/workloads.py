"""The three benchmark workloads and their output checks.

Each workload drives the ``scbnn`` command line in-process through
``scbnn.cli.main(argv)``. One operation is one command plus the check of
its output; a non-zero exit, an exception or a failed check counts the
operation as failed.

* ``sweep-short``: short streams, where the fixed cost per stream (key
  fold plus Philox construction) dominates.
* ``bound-long-mux``: one stream length of about 10^6 bits in MUX mode,
  where the cost per bit and memory dominate.
* ``bnn-roundtrip``: binarization and the BNN <-> SCNN chunking transform
  on a wide net, where packed bits and hex-line I/O dominate and the SNG
  draws no stream bits.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

import numpy as np

#: Seed at which the output files are compared with the pinned digests.
DEFAULT_SEED = 1

#: sha256 of output files at DEFAULT_SEED (numpy 2.4.6, philox4x64-keyfold).
GOLDEN = {
    "sweep-short": {
        "sweep.csv": "6f96e7c3f3feb927cba67326b571053f831bd658294b51f40ca6665b82bd176a",
    },
    "bound-long-mux": {
        "bound_report.json": "4ce9637278015562a2da847ccf345fee3a01c7afe749d0bbe38011cb9d29910b",
    },
    "bnn-roundtrip": {
        "pass/scnn_streams.M1.json": "e2b5f52c9abb2ec4c6e3368d68e3b096dac6799c00c1cd4d83067be16fcff98d",
        "pass/scnn_streams.M64.json": "bdba495cb25caa1aca4e0bdcb0e455ffef38451fb509502b837c2660838c0ffb",
    },
}


class CheckFailed(Exception):
    """An output did not match what the command should have produced."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Ops:
    """Runs CLI commands as counted, checked operations.

    Every output file named in a check is compared with the first pass's
    bytes (so reruns and traced runs must reproduce them) and, when
    ``golden`` is given, with the pinned digest.
    """

    def __init__(self, cli_module, golden: dict[str, str] | None):
        self.cli = cli_module
        self.golden = golden
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str], check=None) -> bool:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            if rc != 0:
                raise CheckFailed(f"exit code {rc}: {err.getvalue().strip()}")
            if check is not None:
                check(out.getvalue())
        except (Exception, SystemExit):
            self.failed += 1
            print(f"perfbench: operation failed: {' '.join(argv)}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        return True

    def same_bytes(self, label: str, path: Path) -> None:
        digest = sha256(path)
        first = self.reference.setdefault(label, digest)
        if digest != first:
            raise CheckFailed(f"{label}: bytes differ from the first pass ({digest} != {first})")
        if self.golden is not None and label in self.golden and digest != self.golden[label]:
            raise CheckFailed(f"{label}: sha256 {digest} != pinned {self.golden[label]}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    name = ""
    items_per_pass = 0
    #: Bindings (module.attr) a traced pass of this workload must reach.
    expected_bindings: tuple[str, ...] = ()

    def setup(self, ops: Ops, work: Path, seed: int) -> None:
        """Build the input files in `work` and run one warm-up item."""
        raise NotImplementedError

    def run_pass(self, ops: Ops, work: Path, seed: int) -> None:
        raise NotImplementedError

    def expected_gates(self) -> dict[int, tuple[int, dict[str, int]]]:
        """Per M: (evaluations per pass, closed-form gate counts per pass)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SweepShort(Workload):
    """README sine net, convergence sweep at M in {16, 64, 256}."""

    name = "sweep-short"
    Ms = (16, 64, 256)
    trials = 30
    grid_points = 17
    N = 32
    items_per_pass = len(Ms) * trials * grid_points
    expected_bindings = (
        "cli.main",
        "cli.fit_reference",
        "cli.forward_scnn",
        "cli.convergence_sweep",
        "theory.forward_scnn",
        "scnn.sng_encode",
        "bitstream.StreamKey.generator",
        "scnn.dot_product_sc",
        "scgates.xnor_mult",
        "scgates.apc_sum",
        "scnn.activate",
    )

    def setup(self, ops, work, seed):
        ops.run(
            ["fit", "--target", "sine", "--N", str(self.N), "--seed", "2",
             "--edge-fraction", "0.75", "--noise-penalty", "0.01",
             "--out-dir", str(work / "sine")],
            lambda _: _expect((work / "sine" / "network.json").is_file(), "no network.json"),
        )
        ops.run(
            ["eval", "--network", str(work / "sine" / "network.json"), "--x", "0.5",
             "--scnn", "--M", str(self.Ms[-1]), "--mode", "apc", "--seed", str(seed)],
            lambda stdout: _expect("scnn " in stdout, "eval printed no scnn value"),
        )

    def run_pass(self, ops, work, seed):
        out = work / "sweep"

        def check(stdout):
            _expect("slope_median" in stdout, "sweep printed no summary")
            ops.same_bytes("sweep.csv", out / "sweep.csv")
            with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            _expect([int(r["M"]) for r in rows] == list(self.Ms), "sweep.csv has wrong M rows")
            for r in rows:
                _expect(int(r["trials"]) == self.trials, "sweep.csv trials")
                _expect(int(r["grid_size"]) == self.grid_points, "sweep.csv grid_size")
                _expect(0.0 <= float(r["failure_rate"]) <= 1.0, "failure_rate out of [0, 1]")

        ops.run(
            ["sweep", "--network", str(work / "sine" / "network.json"), "--target", "sine",
             "--Ms", ",".join(map(str, self.Ms)), "--trials", str(self.trials),
             "--grid-points", str(self.grid_points), "--epsilon", "0.15", "--mode", "apc",
             "--jobs", "1", "--seed", str(seed), "--out-dir", str(out)],
            check,
        )

    def expected_gates(self):
        from scbnn.energy import layer_energy
        from scbnn.scgates import AccumulationMode

        evals = self.trials * self.grid_points
        return {
            M: (evals, {k: v * evals for k, v in layer_energy(1, M, self.N, AccumulationMode.APC).classes().items()})
            for M in self.Ms
        }


class BoundLongMux(Workload):
    """Bit-length bound at M = 1,020,101, validated in MUX mode."""

    name = "bound-long-mux"
    M = 1_020_101
    trials = 4
    grid_points = 5
    N = 8
    alpha_sum = 10.1
    items_per_pass = trials * grid_points
    expected_bindings = (
        "cli.main",
        "cli.fit_reference",
        "cli.forward_scnn",
        "cli.bound_validation",
        "theory.forward_scnn",
        "scnn.sng_encode",
        "bitstream.StreamKey.generator",
        "scnn.dot_product_sc",
        "scgates.xnor_mult",
        "scgates.mux_add",
        "scnn.activate",
    )

    def setup(self, ops, work, seed):
        net_dir = work / "linear"

        def check_fit(_):
            report = load_json(net_dir / "fit_report.json")
            # The bound is only valid for alpha_sum no larger than the one passed.
            _expect(report["alpha_sum"] <= self.alpha_sum, f"alpha_sum {report['alpha_sum']} > {self.alpha_sum}")

        ops.run(
            ["fit", "--target", "linear", "--N", str(self.N), "--seed", "1", "--out-dir", str(net_dir)],
            check_fit,
        )
        ops.run(
            ["eval", "--network", str(net_dir / "network.json"), "--x", "0.5", "--scnn",
             "--M", str(self.M), "--mode", "mux", "--seed", str(seed)],
            lambda stdout: _expect("scnn " in stdout, "eval printed no scnn value"),
        )

    def run_pass(self, ops, work, seed):
        out = work / "bound"

        def check(stdout):
            _expect(f"M_min = {self.M}" in stdout, "wrong M_min")
            _expect("[PASS]" in stdout, "bound validation did not print PASS")
            ops.same_bytes("bound_report.json", out / "bound_report.json")
            report = load_json(out / "bound_report.json")
            _expect(report["M"] == self.M and report["passed"] is True, "bound_report.json")
            _expect(report["samples"] == self.items_per_pass, "bound_report.json samples")

        ops.run(
            ["bound", "--n", "1", "--N", str(self.N), "--epsilon", "0.04", "--delta", "0.25",
             "--alpha-sum", str(self.alpha_sum), "--validate",
             "--network", str(work / "linear" / "network.json"), "--target", "linear",
             "--mode", "mux", "--trials", str(self.trials), "--grid-points", str(self.grid_points),
             "--seed", str(seed), "--out-dir", str(out)],
            check,
        )

    def expected_gates(self):
        from scbnn.energy import layer_energy
        from scbnn.scgates import AccumulationMode

        evals = self.items_per_pass
        per = layer_energy(1, self.M, self.N, AccumulationMode.MUX).classes()
        return {self.M: (evals, {k: v * evals for k, v in per.items()})}


class BnnRoundTrip(Workload):
    """Keyed random net (n=4096, N=16): binarize, then to-scnn / to-bnn at M in {1, 64}."""

    name = "bnn-roundtrip"
    n = 4096
    N = 16
    Ms = (1, 64)
    items_per_pass = N * len(Ms)
    expected_bindings = (
        "cli.main",
        "bnn.binarize",
        "bitstream.StreamKey.generator",
        "transform.split_vector",
        "transform.join_streams",
        "cli.preactivation_equivalence_check",
        "transform.xnor_mult",
        "transform.apc_sum",
        "transform.binary_dot",
        "cli.to_hex_line",
        "cli.from_hex_line",
    )

    def _write_net(self, path: Path, W, b, a, name: str) -> None:
        # Weight-file format; |values| < 1, so every pre-scale factor is 1.
        doc = {
            "name": name,
            "n": int(W.shape[1]),
            "N": int(W.shape[0]),
            "activation": "tanh",
            "hidden_weights": W.tolist(),
            "hidden_biases": b.tolist(),
            "output_weights": a.tolist(),
            "prescale": {"weights": 1.0, "inputs": 1.0, "bias": 1.0},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    def setup(self, ops, work, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        W = gen.uniform(-1.0, 1.0, (self.N, self.n))
        b = gen.uniform(-1.0, 1.0, self.N)
        a = gen.uniform(-1.0, 1.0, self.N)
        work.mkdir(parents=True, exist_ok=True)
        self._write_net(work / "reference.json", W, b, a, f"perfbench-n{self.n}-N{self.N}")
        # Warm-up item: one hidden unit through the round trip at one M.
        self._write_net(work / "unit.json", W[:1], b[:1], a[:1], "perfbench-unit")
        self._round_trip(ops, work / "warmup", work / "unit.json", seed, self.Ms[-1:], 1)

    def run_pass(self, ops, work, seed):
        self._round_trip(ops, work / "pass", work / "reference.json", seed, self.Ms, self.N)

    def _round_trip(self, ops, out: Path, net_path: Path, seed, Ms, N) -> None:
        binary = out / "binary" / "binary_network.json"

        def check_binarize(_):
            ops.same_bytes(f"{out.name}/binary_network.json", binary)
            doc = load_json(binary)
            _expect(doc["m"] == self.n and doc["N"] == N, "binarized net has the wrong shape")

        if not ops.run(
            ["convert", "--network", str(net_path), "--binarize", "--seed", str(seed),
             "--out-dir", str(binary.parent)],
            check_binarize,
        ):
            return
        for M in Ms:
            streams = out / f"scnn{M}" / "scnn_streams.json"
            back = out / f"bnn{M}" / "binary_network.json"

            def check_to_scnn(stdout, M=M, streams=streams):
                lines = [ln for ln in stdout.splitlines() if ln.startswith("unit ")]
                _expect(len(lines) == N and all(ln.endswith("[PASS]") for ln in lines),
                        f"equivalence check at M={M} did not PASS for all {N} units")
                ops.same_bytes(f"{out.name}/scnn_streams.M{M}.json", streams)

            def check_to_bnn(_, M=M, back=back):
                ops.same_bytes(f"{out.name}/bnn{M}.json", back)
                original, joined = load_json(binary), load_json(back)
                for doc in (original, joined):
                    doc.pop("meta")
                _expect(joined.pop("name") == f"{original.pop('name')}-M{M}", "round-trip name")
                _expect(joined == original, f"--to-bnn at M={M} differs from the binarized net")

            ops.run(
                ["convert", "--network", str(binary), "--to-scnn", str(M), "--seed", str(seed),
                 "--out-dir", str(streams.parent)],
                check_to_scnn,
            )
            ops.run(
                ["convert", "--network", str(streams), "--to-bnn", "--seed", str(seed),
                 "--out-dir", str(back.parent)],
                check_to_bnn,
            )

    def expected_gates(self):
        from scbnn.energy import layer_energy
        from scbnn.scgates import AccumulationMode

        out = {}
        for M in self.Ms:
            n = self.n // M
            # The check multiplies n weight/input stream pairs and
            # accumulates them with the bias stream as an (n+1)-th term.
            counts = {
                "xnor_ops": layer_energy(n, M, self.N, AccumulationMode.APC).xnor_ops,
                "and_ops": 0,
                "mux_select_ops": 0,
                "apc_bit_adds": layer_energy(n + 1, M, self.N, AccumulationMode.APC).apc_bit_adds,
            }
            out[M] = (1, counts)
        return out


WORKLOADS = {w.name: w for w in (SweepShort(), BoundLongMux(), BnnRoundTrip())}
