"""Batch experiment runner.

Subcommands: fit, eval, sweep, bound, convert, energy. Every setting of a
run comes from its flag, with the parser's default where none is given.
Every command is deterministic given its seed; every output file embeds a
metadata header (tool version, config hash, seed, RNG family). Exit codes:
0 success, 1 validation-check failure, 2 usage error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bitstream import Bitstream, Encoding, GENERATOR_FAMILY, StreamKey, sng_encode
from .bnn import (
    BinaryNetwork,
    binarize_network,
    binary_network_from_dict,
    binary_network_to_dict,
    forward_bnn,
)
from .energy import bnn_layer_energy, layer_energy
from .netcore import (
    FIT_NOISE_PENALTY,
    FIT_RIDGE,
    Activation,
    fit_reference,
    forward_reference,
    load_json_object,
    make_target,
    network_from_dict,
    network_to_dict,
    save_json,
    unit_grid,
)
from .scgates import AccumulationMode
from .scnn import ScnnConfig, forward_scnn
from .theory import (
    BoundQuery,
    SweepRow,
    bound_validation,
    convergence_sweep,
    m_min_bound,
)
from .transform import (
    bundle_from_dict,
    bundle_to_dict,
    preactivation_equivalence_check,
    scnn_to_bnn,
)


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


#: The note in HASH_GAPS for a run key that `_metadata` does not hash.
LEFT_OUT = "left out of the hash"

#: Where a command's config_hash falls short of the run it names: a key of
#: its run dict left out of the hash, or hashed as a name that different
#: inputs can share. Closing a gap moves pinned output bytes, so each waits
#: for the re-pin in ROADMAP item 2, which empties this.
HASH_GAPS = {
    "bound": dict.fromkeys(("mode", "network", "target", "target_params"), LEFT_OUT),
    "sweep": {"network": "hashed as the network's name, which two fits can share"},
    "convert": {"input": "hashed as the input file's basename"},
}


def _metadata(run: dict) -> dict:
    """Every output file's header. `run` is the dict the command resolved
    its settings into and ran from; the config hash covers all of it but
    the keys HASH_GAPS leaves out."""
    gaps = HASH_GAPS.get(run["command"], {})
    return {
        "tool": f"scbnn {__version__}",
        "config_hash": _config_hash({k: v for k, v in run.items() if gaps.get(k) != LEFT_OUT}),
        "seed": run.get("seed", 0),
        "rng": GENERATOR_FAMILY,
    }


def _write_json(path: Path, payload: dict, meta: dict) -> None:
    save_json(path, {"meta": meta, **payload})


def _write_csv(path: Path, header: list[str], rows: list[list], meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_flag(flag: str, text: str, convert, what: str):
    """`convert(text)` for the value `text` of `flag`; a ValueError from it
    becomes one that names the flag, says what it must be and quotes `text`."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{flag} must be {what}, got {text!r}") from None


def _refuse(args, why: str, *dests: str) -> None:
    """A flag the run would ignore is a usage error: the first of `dests`
    given on the command line is named, with `why` it does nothing."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:  # not `in`: 0 == False
            raise ValueError(f"--{dest.replace('_', '-')} {why}")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_target(args, n: int, run: dict):
    """The target function from --target and --target-param. Its name goes
    into run["target"] and its params, only when there are any, into
    run["target_params"]."""
    if args.target is None:
        raise ValueError("no target function given (use --target)")
    params = {}
    for item in args.target_param or ():
        if (param := item.partition("=")[0]) in params:
            raise ValueError(f"--target-param gives {param!r} twice")
        params[param] = _parse_flag("--target-param", item, lambda s: float(s.partition("=")[2]), "name=number")
    run["target"] = args.target
    if params:  # only when given, so a run without them keeps its hash
        run["target_params"] = params
    return make_target(args.target, n, **params)


# ---------------------------------------------------------------------------
# Subcommands. Each output-writing command gathers its settings (its flags,
# with the parser's defaults) into one `run` dict, runs from it and hashes
# it whole in `_metadata`.

def _cmd_fit(args) -> int:
    run = {"command": "fit", "seed": args.seed, "n": args.n, "N": args.N, "activation": args.activation,
           "edge_fraction": args.edge_fraction, "noise_penalty": args.noise_penalty, "ridge": args.ridge}
    if args.name == "":
        raise ValueError("--name must not be empty")
    if args.name:
        run["name"] = args.name
    f = _resolve_target(args, run["n"], run)
    grid = unit_grid(run["n"], args.grid_points)
    run["grid"] = grid.shape[0]
    try:
        net = fit_reference(
            f, run["N"], grid, StreamKey(run["seed"]), activation=Activation(run["activation"]),
            ridge=run["ridge"], noise_penalty=run["noise_penalty"], edge_fraction=run["edge_fraction"],
        )
    except np.linalg.LinAlgError:
        raise ValueError(f"the fit has no finite solution at ridge {run['ridge']!r}; use a larger --ridge") from None
    net.name = run.get("name", net.name)
    out = _out_dir(args.out_dir)
    meta = _metadata(run)
    _write_json(out / "network.json", network_to_dict(net), meta)
    report = {"network": net.name, "target": run["target"], "n": run["n"], "N": run["N"],
              "grid_points": run["grid"], "sup_error": net.fit_sup_error, "alpha_sum": net.alpha_sum}
    _write_json(out / "fit_report.json", report, meta)
    print(f"fit {net.name}: grid sup-error {net.fit_sup_error!r}")
    print(f"wrote {out / 'network.json'} and {out / 'fit_report.json'}")
    return 0


#: Each kind of network file: what a refusal calls it, and its reader.
NETWORK_KINDS = {"reference": ("a reference network file", network_from_dict),
                 "binary": ("a binary network file", binary_network_from_dict),
                 "bundle": ("an scnn-streams bundle file", bundle_from_dict)}


def _load_network(path: str, flag: str, *kinds: str):
    """The network in the file at `path`, read by the reader of its kind;
    a file of a kind not in `kinds` is a ValueError naming `flag`."""
    doc = load_json_object(path, "network file")
    kind = "bundle" if doc.get("form") == "scnn-streams" else "binary" if doc.get("binary") is True else "reference"
    if kind not in kinds:
        raise ValueError(f"{flag} expects " + " or ".join(NETWORK_KINDS[k][0] for k in kinds))
    return NETWORK_KINDS[kind][1](doc, where=path)


def _cmd_eval(args) -> int:
    net = _load_network(args.network, "--network", "reference", "binary")
    if isinstance(net, BinaryNetwork):
        if not args.x_bits:
            raise ValueError("binary networks need --x-bits (e.g. 1011 for +,-,+,+)")
        _refuse(args, "is only used with reference networks", "x", "scnn", "M", "mode", "seed")
        x = _parse_flag("--x-bits", args.x_bits, lambda s: Bitstream.from_bits(s, Encoding.BIPOLAR), "0s and 1s")
        print(f"bnn {forward_bnn(net, x)!r}")
        return 0
    if not args.x:
        raise ValueError("reference networks need --x (comma-separated reals)")
    _refuse(args, "is only used with binary networks", "x_bits")
    if not args.scnn:
        _refuse(args, "is only used with --scnn", "M", "mode", "seed")
    what = "finite reals separated by commas"
    point = _parse_flag("--x", args.x, lambda s: [float(v) for v in s.split(",")], what)
    if not np.isfinite(point).all():
        raise ValueError(f"--x must be {what}, got {args.x!r}")
    lines = [f"reference {forward_reference(net, point)!r}"]
    if args.scnn:  # computed before anything is printed, so a refused run prints nothing
        M = 4096 if args.M is None else args.M
        cfg = ScnnConfig(M, StreamKey(args.seed or 0), AccumulationMode(args.mode or "apc"))
        lines.append(f"scnn {forward_scnn(net, point, cfg)!r} (M={cfg.M}, mode={cfg.mode.value})")
    print("\n".join(lines))
    return 0


def _cmd_sweep(args) -> int:
    run = {"command": "sweep", "seed": args.seed}
    net = _load_network(args.network, "--network", "reference")
    run["network"] = net.name
    f = _resolve_target(args, net.n, run)
    if args.Ms is None:
        raise ValueError("no stream lengths given (use --Ms)")
    Ms = _parse_flag("--Ms", args.Ms, lambda s: [int(v) for v in s.split(",")], "integers separated by commas")
    run.update(Ms=Ms, trials=args.trials, epsilon=args.epsilon, grid=args.grid_points, mode=args.mode)
    report = convergence_sweep(
        net, f, run["Ms"], run["trials"], unit_grid(net.n, run["grid"]), AccumulationMode(run["mode"]),
        StreamKey(run["seed"]), run["epsilon"], jobs=args.jobs,
    )
    meta = _metadata(run)
    out = _out_dir(args.out_dir)
    header = [field.name for field in fields(SweepRow)]
    _write_csv(out / "sweep.csv", header, [astuple(r) for r in report.rows], meta)
    _write_json(out / "sweep_summary.json", report.to_dict(), meta)
    print(f"sweep {net.name} vs {run['target']}: slope_median {report.slope_median!r}")
    for r in report.rows:
        print(
            f"  M={r.M}: median|G_SC-G|={r.median_vs_reference!r} "
            f"failure_rate={r.failure_rate!r}"
        )
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.json'}")
    return 0


def _cmd_bound(args) -> int:
    if not args.validate:
        _refuse(args, "is only used with --validate", "network", "target", "target_param", "trials",
                "grid_points", "mode", "seed", "out_dir")
    run = {"command": "bound", "n": args.n, "N": args.N, "epsilon": args.epsilon, "delta": args.delta,
           "alpha_sum": args.alpha_sum, "trials": 40 if args.trials is None else args.trials,
           "grid": 9 if args.grid_points is None else args.grid_points, "mode": args.mode or "apc",
           "network": args.network, "seed": args.seed or 0}
    q = BoundQuery(run["n"], run["N"], run["epsilon"], run["delta"], alpha_sum=run["alpha_sum"])
    m_min_line = f"M_min = {m_min_bound(q)}"
    if not args.validate:
        print(m_min_line)
        return 0
    if not run["network"] or not args.target:
        raise ValueError("--validate needs --network and --target")
    net = _load_network(run["network"], "--network", "reference")
    f = _resolve_target(args, net.n, run)
    report = bound_validation(
        q, net, f, run["trials"], StreamKey(run["seed"]), grid=unit_grid(net.n, run["grid"]),
        mode=AccumulationMode(run["mode"]),
    )
    status = "PASS" if report.passed else "FAIL"
    # Printed only now, so a refused validation prints nothing.
    print(
        f"{m_min_line}\nvalidation: M={report.M} samples={report.samples} "
        f"failure_rate={report.failure_rate!r} <= delta+2se={report.threshold!r} [{status}]"
    )
    if args.out_dir:
        _write_json(_out_dir(args.out_dir) / "bound_report.json", vars(report), _metadata(run))
    return 0 if report.passed else 1


def _cmd_convert(args) -> int:
    if args.binarize + (args.to_scnn is not None) + args.to_bnn != 1:
        raise ValueError("convert needs exactly one of --binarize, --to-scnn M, --to-bnn")
    flag, kind = (
        ("--binarize", "reference") if args.binarize
        else ("--to-bnn", "bundle") if args.to_bnn
        else ("--to-scnn", "binary")
    )
    run = {"command": "convert", "input": os.path.basename(args.network), "seed": args.seed, "mode": flag[2:]}
    if run["mode"] == "to-scnn":
        run["M"] = args.to_scnn
    key = StreamKey(run["seed"])
    net = _load_network(args.network, flag, kind)
    # Each mode converts before it creates the output directory, so an
    # input it rejects leaves nothing behind. The header is built after the
    # conversion: built before it, it raised the peak RSS of converting a
    # 65,536-weight net by about 0.8 MB (heap layout).
    if run["mode"] != "to-scnn":
        binarize = run["mode"] == "binarize"
        bnet = binarize_network(net, key) if binarize else scnn_to_bnn(net)
        out = _out_dir(args.out_dir)
        meta = _metadata(run)
        _write_json(out / "binary_network.json", binary_network_to_dict(bnet), meta)
        print(f"{'binarized' if binarize else 'joined'} {net.name}: m={bnet.m} N={bnet.N}")
        print(f"wrote {out / 'binary_network.json'}")
        return 0
    # The equivalence check on a keyed random input converts the net; the bundle it checked is written.
    x = sng_encode(0.0, net.m, Encoding.BIPOLAR, key.substream("convert-input"))
    report = preactivation_equivalence_check(net, x, run["M"])
    path = _out_dir(args.out_dir) / "scnn_streams.json"
    _write_json(path, bundle_to_dict(report.bundle), _metadata(run))
    rows = zip(report.bnn_preactivations.tolist(), report.sc_totals.tolist(), report.passed.tolist())
    for u, (bnn, total, passed) in enumerate(rows):
        print(f"unit {u}: bnn={bnn} sc_total={total} [{'PASS' if passed else 'FAIL'}]")
    print(f"wrote {path}")
    if not report.all_passed:
        print("equivalence check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_energy(args) -> int:
    if args.bnn:
        if args.m is None or args.N is None:
            raise ValueError("--bnn needs --m and --N")
        _refuse(args, "is not used with --bnn", "n", "M")
        run = {"command": "energy", "bnn": True, "m": args.m, "N": args.N, "mode": args.mode}
        report = bnn_layer_energy(run["m"], run["N"], AccumulationMode(run["mode"]))
    else:
        if args.n is None or args.M is None or args.N is None:
            raise ValueError("energy needs --n, --M and --N (or --bnn --m --N)")
        _refuse(args, "is only used with --bnn", "m")
        run = {"command": "energy", "n": args.n, "M": args.M, "N": args.N, "mode": args.mode}
        report = layer_energy(run["n"], run["M"], run["N"], AccumulationMode(run["mode"]))
    for name, value in report.classes().items():
        print(f"{name}: {value}")
    print(f"total: {report.total} ({report.asymptotic_label})")
    if args.out_dir:
        path = _out_dir(args.out_dir) / "energy.json"
        _write_json(path, report.to_dict(), _metadata(run))
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scbnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a reference network to a target function")
    p.add_argument("--target")
    p.add_argument("--target-param", action="append", metavar="K=V")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, default=32)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--activation", choices=[a.value for a in Activation], default="tanh")
    p.add_argument("--edge-fraction", type=float, default=0.5)
    p.add_argument("--noise-penalty", type=float, default=FIT_NOISE_PENALTY)
    p.add_argument("--ridge", type=float, default=FIT_RIDGE)
    p.add_argument("--name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="single forward pass of a network at a point")
    p.add_argument("--network", required=True)
    p.add_argument("--x", help="comma-separated reals (reference/scnn)")
    p.add_argument("--x-bits", help="bit string, 1 = +1 (binary networks)")
    p.add_argument("--scnn", action="store_true", help="also evaluate the stochastic pass")
    p.add_argument("--M", type=int)
    p.add_argument("--mode", choices=[m.value for m in AccumulationMode])
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="Monte-Carlo convergence sweep over stream lengths")
    p.add_argument("--network", required=True)
    p.add_argument("--target")
    p.add_argument("--target-param", action="append", metavar="K=V")
    p.add_argument("--Ms", help="comma-separated ascending stream lengths")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=0.15)
    p.add_argument("--grid-points", type=int, default=17)
    p.add_argument("--mode", choices=[m.value for m in AccumulationMode], default="apc")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bound", help="bit-length bound, optionally validated by simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha-sum", type=float)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--network")
    p.add_argument("--target")
    p.add_argument("--target-param", action="append", metavar="K=V")
    p.add_argument("--trials", type=int)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--mode", choices=[m.value for m in AccumulationMode])
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("convert", help="binarize, or transform BNN <-> SCNN streams")
    p.add_argument("--network", required=True)
    p.add_argument("--binarize", action="store_true")
    p.add_argument("--to-scnn", type=int, metavar="M")
    p.add_argument("--to-bnn", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("energy", help="closed-form gate-operation counts")
    p.add_argument("--n", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--bnn", action="store_true")
    p.add_argument("--m", type=int)
    p.add_argument("--mode", choices=[m.value for m in AccumulationMode], default="apc")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_energy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy's names what it could not allocate; a bare one has no text
            exc = f"out of memory: {exc}" if str(exc) else "out of memory"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
