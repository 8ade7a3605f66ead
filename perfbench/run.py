"""scbnn benchmark: end-to-end throughput, memory and set-up time, plus
per-layer spans from a separate traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-short --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout and driven through
``scbnn.cli.main(argv)`` in this one process, single-threaded. Set-up
(import, input files, one warm-up item) is repeated ``SETUP_REPS`` times;
then whole passes of the workload run until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics:

* ``items_per_s``: median over passes of work items per second;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``setup_s``: process start to the end of the import, plus the median
  set-up repetition.

Both times are CPU seconds of this process (``time.process_time``). The
commands run single-threaded in this process, so on an idle machine CPU
time equals wall time; on a shared virtual machine it leaves out the time
the host runs other guests, which would otherwise dominate the spread.

``--trace 1`` first runs one untraced pass, then traced passes, and
reports per-layer metrics per traced pass (see ``layer_metrics``). It
fails the run if traced gate counts differ from the closed-form energy
model or traced output bytes differ from the untraced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment the output bytes depend on. Exit code 2 means the benchmark
could not start (for example, no ``src/scbnn`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
#: Percentiles considered for the forward-pass tail latency.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _fail_to_start(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    src = ROOT / "src"
    if not (src / "scbnn" / "__init__.py").is_file():
        _fail_to_start(f"no scbnn package under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import scbnn
    import scbnn.cli

    if not Path(scbnn.__file__).resolve().is_relative_to(src):
        _fail_to_start(f"imported scbnn from {scbnn.__file__}, not {src}")
    return numpy, scbnn


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(numpy, scbnn, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scbnn": scbnn.__version__,
        "generator_family": scbnn.GENERATOR_FAMILY,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def run_setup(workload, ops, work: Path, seed: int) -> list[float]:
    """Set-up repetitions in fresh directories; returns each one's CPU time."""
    times = []
    for rep in range(SETUP_REPS):
        t0 = time.process_time()
        workload.setup(ops, work / f"setup{rep}", seed)
        times.append(time.process_time() - t0)
    return times


def run_passes(workload, ops, work: Path, seed: int, seconds: float, clock=time.process_time) -> list[float]:
    """Whole passes until `seconds` of wall time have elapsed; returns each
    pass's time on `clock`.

    Stops early after a pass with a failed operation, whose time would not
    measure the workload.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        failed = ops.failed
        t0 = clock()
        workload.run_pass(ops, work, seed)
        times.append(clock() - t0)
        if ops.failed != failed:
            break
    return times


# ---------------------------------------------------------------------------
# Traced run


def check_gates(tracer, workload, passes: int) -> list[str]:
    """Traced gate counts against the closed-form energy model, per M."""
    errors = []
    expected = workload.expected_gates()
    if set(tracer.gates) != set(expected):
        errors.append(f"gate counts recorded at M={sorted(tracer.gates)}, expected M={sorted(expected)}")
    for M, (evals, counts) in expected.items():
        got = tracer.gates.get(M)
        if got is None:
            continue
        if got.evaluations != evals * passes:
            errors.append(f"M={M}: {got.evaluations} evaluations, expected {evals * passes}")
        want = {k: v * passes for k, v in counts.items()}
        if got.counts != want:
            errors.append(f"M={M}: gate counts {got.counts} != layer_energy x evaluations {want}")
    return errors


def layer_metrics(tracer, passes: int, wall_s: float, base_s: float, fit_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass unless the name says otherwise."""
    import numpy as np

    L = tracer.layers

    def calls(name):
        return (L[name].calls / passes, "count")

    def self_s(name):
        return (L[name].self_s / passes, "s")

    sng = L["bitstream.sng_encode"]
    fwd = L["scnn.forward_scnn"].durations
    if fwd:
        ms = np.asarray(fwd) * 1e3
        tail = max((p for p in TAIL_PERCENTILES if len(ms) * (1 - p / 100) >= 10), default=50.0)
        p50, p_tail = float(np.percentile(ms, 50)), float(np.percentile(ms, tail))
        print(f"perfbench: forward_scnn: {len(ms)} samples, ms_tail is p{tail:g}", file=sys.stderr)
    else:
        p50, p_tail = 0.0, 0.0
    gates = {cls: 0 for cls in ("xnor_ops", "apc_bit_adds", "mux_select_ops")}
    for tally in tracer.gates.values():
        for cls in gates:
            gates[cls] += tally.counts[cls]

    m = {
        "bitstream.generator.calls": calls("bitstream.generator"),
        "bitstream.generator.self_s": self_s("bitstream.generator"),
        "bitstream.sng_encode.calls": calls("bitstream.sng_encode"),
        "bitstream.sng_encode.bits": (sng.bits / passes, "count"),
        "bitstream.sng_encode.self_s": self_s("bitstream.sng_encode"),
        # Inclusive of key fold and generator construction: the fixed cost
        # per stream dominates us_per_call, the per-bit cost ns_per_bit.
        "bitstream.sng_encode.us_per_call": (sng.incl_s / sng.calls * 1e6 if sng.calls else 0.0, "us"),
        "bitstream.sng_encode.ns_per_bit": (sng.incl_s / sng.bits * 1e9 if sng.bits else 0.0, "ns"),
    }
    for gate in ("dot_product_sc", "xnor_mult", "apc_sum", "mux_add"):
        m[f"scgates.{gate}.calls"] = calls(f"scgates.{gate}")
        m[f"scgates.{gate}.self_s"] = self_s(f"scgates.{gate}")
    for cls, total in gates.items():
        m[f"scgates.{cls}"] = (total / passes, "count")
    m.update({
        "scnn.forward_scnn.calls": calls("scnn.forward_scnn"),
        "scnn.forward_scnn.self_s": self_s("scnn.forward_scnn"),
        "scnn.forward_scnn.ms_p50": (p50, "ms"),
        "scnn.forward_scnn.ms_tail": (p_tail, "ms"),
        "netcore.activate.calls": calls("netcore.activate"),
        "netcore.activate.self_s": self_s("netcore.activate"),
        "netcore.fit_reference.s": (fit_s, "s"),
        "theory.convergence_sweep.self_s": self_s("theory.convergence_sweep"),
        "theory.bound_validation.self_s": self_s("theory.bound_validation"),
        "bnn.binarize.calls": calls("bnn.binarize"),
        "bnn.binarize.self_s": self_s("bnn.binarize"),
        "bnn.binary_dot.self_s": self_s("bnn.binary_dot"),
        "transform.split_vector.self_s": self_s("transform.split_vector"),
        "transform.join_streams.self_s": self_s("transform.join_streams"),
        "transform.preactivation_equivalence_check.self_s": self_s("transform.preactivation_equivalence_check"),
        "bitstream.hex.self_s": self_s("bitstream.hex"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": ((wall_s / passes - base_s) / base_s, "ratio"),
        "trace.unattributed_frac": ((wall_s - tracer.root_s) / wall_s, "ratio"),
    })
    return m


def print_shares(tracer, wall_s: float) -> None:
    """Self-time and inclusive-time share of each layer, to stderr."""
    print(f"perfbench: traced wall {wall_s:.3f} s; share of wall by layer (self / inclusive):", file=sys.stderr)
    rows = sorted(tracer.layers.items(), key=lambda kv: -kv[1].self_s)
    for name, st in rows:
        if st.calls:
            print(
                f"  {name:45s} {st.self_s / wall_s:7.2%} {st.incl_s / wall_s:7.2%}  calls={st.calls}",
                file=sys.stderr,
            )
    print(f"  {'(no span)':45s} {(wall_s - tracer.root_s) / wall_s:7.2%}", file=sys.stderr)


def traced_run(workload, ops, work, args) -> tuple[dict, list[str]]:
    from spans import Tracer

    tracer = Tracer()
    errors = []
    with tracer.install():
        run_setup(workload, ops, work, args.seed)
    fit = tracer.layers["netcore.fit_reference"]
    fit_s = fit.incl_s / fit.calls if fit.calls else 0.0
    reached = {b for b, n in tracer.binding_calls.items() if n}
    tracer.reset()

    # One untraced pass: the base for the overhead and for the output bytes.
    setup_dir = work / f"setup{SETUP_REPS - 1}"
    base = run_passes(workload, ops, setup_dir, args.seed, 0.0, time.perf_counter)[0]
    with tracer.install():
        passes = run_passes(workload, ops, setup_dir, args.seed, args.seconds - base, time.perf_counter)
    wall_s = sum(passes)
    reached |= {b for b, n in tracer.binding_calls.items() if n}

    for name in tracer.absent:
        print(f"perfbench: warning: missing layer {name} (not found in the package)", file=sys.stderr)
    for binding in workload.expected_bindings:
        if binding not in reached:
            print(f"perfbench: warning: missing layer {binding} (no calls on {workload.name})", file=sys.stderr)
    errors += check_gates(tracer, workload, len(passes))
    print_shares(tracer, wall_s)
    return layer_metrics(tracer, len(passes), wall_s, base, fit_s), errors


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, Ops

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy, scbnn = _import_package()
    import_s = time.process_time()  # CPU time since the process started
    cli = scbnn.cli

    workload = WORKLOADS[args.workload]
    golden = GOLDEN[workload.name] if args.seed == DEFAULT_SEED else None
    ops = Ops(cli, golden)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    errors: list[str] = []
    try:
        if args.trace:
            metrics, errors = traced_run(workload, ops, work, args)
        else:
            setup_times = run_setup(workload, ops, work, args.seed)
            setup_dir = work / f"setup{SETUP_REPS - 1}"
            pass_times = run_passes(workload, ops, setup_dir, args.seed, args.seconds)
            print(f"perfbench: pass CPU times {[round(t, 3) for t in pass_times]} s", file=sys.stderr)
            metrics = {
                "items_per_s": (statistics.median(workload.items_per_pass / t for t in pass_times), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (import_s + statistics.median(setup_times), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # not empty, or already gone
            pass

    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print("perfbench env " + json.dumps(environment(numpy, scbnn, args), sort_keys=True))
    result = {
        "correct": ops.failed == 0 and not errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
