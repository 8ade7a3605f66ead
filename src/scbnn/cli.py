"""Batch experiment runner.

Subcommands: fit, eval, sweep, bound, convert, energy. Every command is
deterministic given its seed; every output file embeds a metadata header
(tool version, config hash, seed, RNG family). Exit codes: 0 success,
1 validation-check failure, 2 usage/config error.
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
from .bitstream import Bitstream, Encoding, GENERATOR_FAMILY, StreamKey
from .bnn import (
    binarize_network,
    binary_network_from_dict,
    binary_network_to_dict,
    forward_bnn,
)
from .energy import bnn_layer_energy, layer_energy
from .netcore import (
    Activation,
    _check_json_type,
    fit_reference,
    forward_reference,
    load_json_object,
    load_network,
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
    chunk_network,
    preactivation_equivalence_check,
    scnn_to_bnn,
)


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _metadata(resolved: dict, seed: int) -> dict:
    return {
        "tool": f"scbnn {__version__}",
        "config_hash": _config_hash(resolved),
        "seed": seed,
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


def _load_config(path: str | None) -> dict:
    return load_json_object(path, "config") if path else {}


def _resolve(args_value, config: dict, key: str, default, kind):
    """Flag > config > default. `key` is a dotted path into the config
    ("sweep.trials"); a config value must have the JSON type `kind`, or be
    a list of them when `kind` is `[type]`."""
    if args_value is not None:
        return args_value
    *sections, name = key.split(".")
    for section in sections:
        config = _check_json_type(config.get(section, {}), dict, f"config {section}")
    if name not in config:
        return default
    if isinstance(kind, list):
        items = _check_json_type(config[name], list, f"config {key}")
        return [_check_json_type(v, kind[0], f"config {key}[{i}]") for i, v in enumerate(items)]
    return _check_json_type(config[name], kind, f"config {key}")


def _parse_flag(flag: str, text: str, convert, what: str):
    """`convert(text)` for the value `text` of `flag`; a ValueError from it
    becomes one that names the flag, says what it must be and quotes `text`."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{flag} must be {what}, got {text!r}") from None


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_target(args, config: dict, n: int):
    """(name, params, target) from --target/--target-param over config
    target.name/target.params. The config's params belong to the config's
    target, so they are dropped when --target names a different one."""
    config_name = _resolve(None, config, "target.name", None, str)
    name = config_name if args.target is None else args.target
    if name is None:
        raise ValueError("no target function given (use --target or config)")
    items = _resolve(args.target_param, config, "target.params", [], [str])
    if args.target_param is None and name != config_name:
        items = []
    source = "config target.params" if args.target_param is None else "--target-param"
    params = {
        item.partition("=")[0]: _parse_flag(source, item, lambda s: float(s.partition("=")[2]), "name=number")
        for item in items
    }
    return name, params, make_target(name, n, **params)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_fit(args) -> int:
    config = _load_config(args.config)
    seed = _resolve(args.seed, config, "seed", 0, int)
    n = _resolve(args.n, config, "target.n", 1, int)
    N = _resolve(args.N, config, "fit.N", 32, int)
    grid_points = _resolve(args.grid_points, config, "fit.grid", None, int)
    activation = Activation(_resolve(args.activation, config, "fit.activation", "tanh", str))
    edge_fraction = _resolve(args.edge_fraction, config, "fit.edge_fraction", 0.5, float)
    noise_penalty = _resolve(args.noise_penalty, config, "fit.noise_penalty", 1e-3, float)
    ridge = _resolve(args.ridge, config, "fit.ridge", 1e-8, float)
    target_name, target_params, f = _resolve_target(args, config, n)
    grid = unit_grid(n, grid_points)
    try:
        net = fit_reference(
            f,
            N,
            grid,
            StreamKey(seed),
            activation=activation,
            ridge=ridge,
            noise_penalty=noise_penalty,
            edge_fraction=edge_fraction,
        )
    except np.linalg.LinAlgError:
        raise ValueError(f"the fit has no finite solution at ridge {ridge!r}; use a larger --ridge") from None
    if args.name:
        net.name = args.name
    resolved = {
        "command": "fit",
        "target": target_name,
        "n": n,
        "N": N,
        "grid": grid.shape[0],
        "activation": activation.value,
        "edge_fraction": edge_fraction,
        "noise_penalty": noise_penalty,
        "ridge": ridge,
        "seed": seed,
    }
    if target_params:  # only when given, so a run without them keeps its hash
        resolved["target_params"] = target_params
    out = _out_dir(args.out_dir)
    meta = _metadata(resolved, seed)
    _write_json(out / "network.json", network_to_dict(net), meta)
    _write_json(
        out / "fit_report.json",
        {
            "network": net.name,
            "target": target_name,
            "n": n,
            "N": N,
            "grid_points": grid.shape[0],
            "sup_error": net.fit_sup_error,
            "alpha_sum": net.alpha_sum,
        },
        meta,
    )
    print(f"fit {net.name}: grid sup-error {net.fit_sup_error!r}")
    print(f"wrote {out / 'network.json'} and {out / 'fit_report.json'}")
    return 0


def _load_any_network(path: str):
    """Returns ('reference'|'binary'|'bundle', object)."""
    doc = load_json_object(path, "network file")
    if doc.get("form") == "scnn-streams":
        return "bundle", bundle_from_dict(doc, path)
    if doc.get("binary") is True:
        return "binary", binary_network_from_dict(doc, where=path)
    return "reference", network_from_dict(doc, where=path)


def _cmd_eval(args) -> int:
    kind, net = _load_any_network(args.network)
    if kind == "binary":
        if not args.x_bits:
            raise ValueError("binary networks need --x-bits (e.g. 1011 for +,-,+,+)")
        x = _parse_flag("--x-bits", args.x_bits, lambda s: Bitstream.from_bits(s, Encoding.BIPOLAR), "0s and 1s")
        print(f"bnn {forward_bnn(net, x)!r}")
        return 0
    if kind == "bundle":
        raise ValueError("eval expects a reference or binary network file")
    if not args.x:
        raise ValueError("reference networks need --x (comma-separated reals)")
    what = "finite reals separated by commas"
    point = _parse_flag("--x", args.x, lambda s: [float(v) for v in s.split(",")], what)
    if not np.isfinite(point).all():
        raise ValueError(f"--x must be {what}, got {args.x!r}")
    print(f"reference {forward_reference(net, point)!r}")
    if args.scnn:
        cfg = ScnnConfig(args.M, StreamKey(args.seed), AccumulationMode(args.mode))
        print(f"scnn {forward_scnn(net, point, cfg)!r} (M={cfg.M}, mode={cfg.mode.value})")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    seed = _resolve(args.seed, config, "seed", 0, int)
    net = load_network(args.network)
    target_name, target_params, f = _resolve_target(args, config, net.n)
    Ms = _resolve(args.Ms, config, "sweep.Ms", None, [int])
    if isinstance(Ms, str):
        Ms = _parse_flag("--Ms", Ms, lambda s: [int(v) for v in s.split(",")], "integers separated by commas")
    if not Ms:
        raise ValueError("no stream lengths given (use --Ms or config sweep.Ms)")
    trials = _resolve(args.trials, config, "sweep.trials", 200, int)
    epsilon = _resolve(args.epsilon, config, "sweep.epsilon", 0.15, float)
    grid_points = _resolve(args.grid_points, config, "sweep.grid", 17, int)
    mode = AccumulationMode(_resolve(args.mode, config, "mode", "apc", str))
    grid = unit_grid(net.n, grid_points)
    report = convergence_sweep(
        net, f, Ms, trials, grid, mode, StreamKey(seed), epsilon, jobs=args.jobs
    )
    resolved = {
        "command": "sweep",
        "network": net.name,
        "target": target_name,
        "Ms": Ms,
        "trials": trials,
        "epsilon": epsilon,
        "grid": grid_points,
        "mode": mode.value,
        "seed": seed,
    }
    if target_params:
        resolved["target_params"] = target_params
    meta = _metadata(resolved, seed)
    out = _out_dir(args.out_dir)
    header = [field.name for field in fields(SweepRow)]
    _write_csv(out / "sweep.csv", header, [astuple(r) for r in report.rows], meta)
    plot_header = ["M", "median_vs_reference", "rms_vs_reference", "median_vs_target", "rms_vs_target", "failure_rate"]
    plot_rows = [[getattr(r, name) for name in plot_header] for r in report.rows]
    _write_csv(out / "sweep_plot.csv", plot_header, plot_rows, meta)
    _write_json(out / "sweep_summary.json", report.to_dict(), meta)
    print(f"sweep {net.name} vs {target_name}: slope_median {report.slope_median!r}")
    for r in report.rows:
        print(
            f"  M={r.M}: median|G_SC-G|={r.median_vs_reference!r} "
            f"failure_rate={r.failure_rate!r}"
        )
    print(f"wrote {out / 'sweep.csv'}, {out / 'sweep_plot.csv'}, {out / 'sweep_summary.json'}")
    return 0


def _cmd_bound(args) -> int:
    q = BoundQuery(args.n, args.N, args.epsilon, args.delta, alpha_sum=args.alpha_sum)
    M = m_min_bound(q)
    print(f"M_min = {M}")
    if not args.validate:
        return 0
    if not args.network or not args.target:
        raise ValueError("--validate needs --network and --target")
    net = load_network(args.network)
    *_, f = _resolve_target(args, {}, net.n)
    # The bound covers only networks of the queried shape with sum |alpha| <= A.
    for flag, asked, has in (("--n", q.n, net.n), ("--N", q.N, net.N)):
        if asked != has:
            raise ValueError(f"{flag} {asked} does not match the network's {flag[2:]} = {has}")
    A, flag = (q.N, "--N") if q.alpha_sum is None else (q.alpha_sum, "--alpha-sum")
    if A < net.alpha_sum:
        raise ValueError(f"A = {A!r} (from {flag}) is below the network's sum |alpha| = {net.alpha_sum!r}")
    grid = unit_grid(net.n, args.grid_points)
    report = bound_validation(
        q, net, f, args.trials, StreamKey(args.seed), grid=grid, mode=AccumulationMode(args.mode)
    )
    status = "PASS" if report.passed else "FAIL"
    print(
        f"validation: M={report.M} samples={report.samples} "
        f"failure_rate={report.failure_rate!r} <= delta+2se={report.threshold!r} [{status}]"
    )
    if args.out_dir:
        resolved = {
            "command": "bound",
            "n": args.n,
            "N": args.N,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "alpha_sum": args.alpha_sum,
            "trials": args.trials,
            "grid": args.grid_points,
            "seed": args.seed,
        }
        _write_json(_out_dir(args.out_dir) / "bound_report.json", vars(report), _metadata(resolved, args.seed))
    return 0 if report.passed else 1


def _cmd_convert(args) -> int:
    if args.binarize + (args.to_scnn is not None) + args.to_bnn != 1:
        raise ValueError("convert needs exactly one of --binarize, --to-scnn M, --to-bnn")
    key = StreamKey(args.seed)
    kind, net = _load_any_network(args.network)
    flag, wanted, what = (
        ("--binarize", "reference", "a reference network file") if args.binarize
        else ("--to-bnn", "bundle", "an scnn-streams bundle file") if args.to_bnn
        else ("--to-scnn", "binary", "a binary network file")
    )
    if kind != wanted:
        raise ValueError(f"{flag} expects {what}")
    # Each mode converts before it creates the output directory, so an
    # input it rejects leaves nothing behind.
    resolved = {"command": "convert", "input": os.path.basename(args.network), "seed": args.seed}
    if args.binarize or args.to_bnn:
        bnet = binarize_network(net, key) if args.binarize else scnn_to_bnn(net)[0]
        out = _out_dir(args.out_dir)
        meta = _metadata({**resolved, "mode": "binarize" if args.binarize else "to-bnn"}, args.seed)
        _write_json(out / "binary_network.json", binary_network_to_dict(bnet), meta)
        if args.binarize:
            _write_json(out / "conversion_report.json", {"conversion": "binarize", "m": bnet.m, "N": bnet.N}, meta)
        print(f"{'binarized' if args.binarize else 'joined'} {net.name}: m={bnet.m} N={bnet.N}")
        print(f"wrote {out / 'binary_network.json'}")
        return 0
    M = args.to_scnn
    bundle = chunk_network(net, M)
    path = _out_dir(args.out_dir) / "scnn_streams.json"
    _write_json(path, bundle_to_dict(bundle),
                _metadata({**resolved, "mode": "to-scnn", "M": M}, args.seed))
    # equivalence check on a keyed random input vector
    gen = key.substream("convert-input").generator()
    x = Bitstream.from_bits((gen.random(net.m) < 0.5).astype(np.uint8), Encoding.BIPOLAR)
    report = preactivation_equivalence_check(net, x, M)
    for u in report.units:
        status = "PASS" if u.passed else "FAIL"
        print(f"unit {u.unit}: bnn={u.bnn_preactivation} sc_total={u.sc_total} [{status}]")
    print(f"wrote {path}")
    if not report.all_passed:
        print("equivalence check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_energy(args) -> int:
    mode = AccumulationMode(args.mode)
    if args.bnn:
        if args.m is None or args.N is None:
            raise ValueError("--bnn needs --m and --N")
        report = bnn_layer_energy(args.m, args.N, mode)
        resolved = {"command": "energy", "bnn": True, "m": args.m, "N": args.N, "mode": mode.value}
    else:
        if args.n is None or args.M is None or args.N is None:
            raise ValueError("energy needs --n, --M and --N (or --bnn --m --N)")
        report = layer_energy(args.n, args.M, args.N, mode)
        resolved = {"command": "energy", "n": args.n, "M": args.M, "N": args.N, "mode": mode.value}
    for name, value in report.classes().items():
        print(f"{name}: {value}")
    print(f"total: {report.total} ({report.asymptotic_label})")
    if args.out_dir:
        out = _out_dir(args.out_dir)
        meta = _metadata(resolved, 0)
        _write_json(out / "energy.json", report.to_dict(), meta)
        classes = report.classes()
        _write_csv(
            out / "energy.csv",
            ["class", "count"],
            [[k, v] for k, v in classes.items()] + [["total", report.total]],
            meta,
        )
        print(f"wrote {out / 'energy.json'} and {out / 'energy.csv'}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scbnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a reference network to a target function")
    p.add_argument("--target")
    p.add_argument("--target-param", action="append", metavar="K=V")
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--activation", choices=[a.value for a in Activation])
    p.add_argument("--edge-fraction", type=float)
    p.add_argument("--noise-penalty", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--name")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="single forward pass of a network at a point")
    p.add_argument("--network", required=True)
    p.add_argument("--x", help="comma-separated reals (reference/scnn)")
    p.add_argument("--x-bits", help="bit string, 1 = +1 (binary networks)")
    p.add_argument("--scnn", action="store_true", help="also evaluate the stochastic pass")
    p.add_argument("--M", type=int, default=4096)
    p.add_argument("--mode", choices=["mux", "apc"], default="apc")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="Monte-Carlo convergence sweep over stream lengths")
    p.add_argument("--network", required=True)
    p.add_argument("--target")
    p.add_argument("--target-param", action="append", metavar="K=V")
    p.add_argument("--Ms", help="comma-separated ascending stream lengths")
    p.add_argument("--trials", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--mode", choices=["mux", "apc"])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
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
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--grid-points", type=int, default=9)
    p.add_argument("--mode", choices=["mux", "apc"], default="apc")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--mode", choices=["mux", "apc"], default="apc")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_energy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
