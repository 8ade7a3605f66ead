"""Per-layer spans recorded from outside the package.

The tracer replaces every module binding of a layer's public function
(``scnn.sng_encode``, ``theory.forward_scnn``, ``cli.to_hex_line``, ...)
with a wrapper that times the call. Spans nest through a stack, so each
layer gets its inclusive time and its self time (inclusive time minus the
part its child spans cover). Spans are aggregated in memory per layer and
per binding; nothing inside ``src/`` is modified.

Two layers also count gate operations: each ``forward_scnn`` and each
``preactivation_equivalence_check`` call runs inside its own
``scgates.counting()`` block, and the tallies are kept per stream length M
so they can be compared with the closed-form energy model.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Reads one argument of a wrapped call: (args, kwargs) -> value.
ArgReader = Callable[[tuple, dict], int]


def _arg(index: int, name: str) -> ArgReader:
    return lambda args, kwargs: kwargs[name] if name in kwargs else args[index]


@dataclass(frozen=True)
class LayerSpec:
    layer: str  # metric prefix, e.g. "bitstream.sng_encode"
    module: str  # module that defines the function, e.g. "bitstream"
    attr: str  # "sng_encode", or "Class.method" for a method
    bits: ArgReader | None = None  # stream length, summed into LayerStats.bits
    keep_durations: bool = False
    gates_m: ArgReader | None = None  # stream length M to count gate ops under


LAYERS = (
    LayerSpec("bitstream.generator", "bitstream", "StreamKey.generator"),
    LayerSpec("bitstream.sng_encode", "bitstream", "sng_encode", bits=_arg(1, "M")),
    LayerSpec("bitstream.hex", "bitstream", "to_hex_line"),
    LayerSpec("bitstream.hex", "bitstream", "from_hex_line"),
    LayerSpec("scgates.dot_product_sc", "scgates", "dot_product_sc"),
    LayerSpec("scgates.xnor_mult", "scgates", "xnor_mult"),
    LayerSpec("scgates.apc_sum", "scgates", "apc_sum"),
    LayerSpec("scgates.mux_add", "scgates", "mux_add"),
    LayerSpec(
        "scnn.forward_scnn",
        "scnn",
        "forward_scnn",
        keep_durations=True,
        gates_m=lambda args, kwargs: _arg(2, "cfg")(args, kwargs).M,
    ),
    LayerSpec("netcore.activate", "netcore", "activate"),
    LayerSpec("netcore.fit_reference", "netcore", "fit_reference"),
    LayerSpec("theory.convergence_sweep", "theory", "convergence_sweep"),
    LayerSpec("theory.bound_validation", "theory", "bound_validation"),
    LayerSpec("bnn.binarize", "bnn", "binarize"),
    LayerSpec("bnn.binary_dot", "bnn", "binary_dot"),
    LayerSpec("transform.split_vector", "transform", "split_vector"),
    LayerSpec("transform.join_streams", "transform", "join_streams"),
    LayerSpec(
        "transform.preactivation_equivalence_check",
        "transform",
        "preactivation_equivalence_check",
        gates_m=_arg(2, "M"),
    ),
    LayerSpec("cli.main", "cli", "main"),
)

GATE_CLASSES = ("xnor_ops", "and_ops", "mux_select_ops", "apc_bit_adds")


@dataclass
class LayerStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    bits: int = 0
    durations: list[float] | None = None


@dataclass
class GateTally:
    evaluations: int = 0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(GATE_CLASSES, 0))


class Tracer:
    """Wraps the layer bindings of the imported ``scbnn`` package.

    ``install()`` is a context manager: the originals are restored on exit.
    Bindings or layers the package no longer has are listed in
    ``self.absent`` instead of failing, so a refactor shows up as a
    warning, not as a broken benchmark.
    """

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.binding_calls: dict[str, int] = {}
        self.gates: dict[int, GateTally] = {}
        self.root_s = 0.0
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()
        self._discover()

    def reset(self) -> None:
        for spec in LAYERS:
            self.layers[spec.layer] = LayerStats(durations=[] if spec.keep_durations else None)
        self.binding_calls = dict.fromkeys(self.binding_calls, 0)
        self.gates = {}
        self.root_s = 0.0

    def _discover(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "scbnn" or name.startswith("scbnn."))
        }
        for spec in LAYERS:
            owner = modules.get(f"scbnn.{spec.module}")
            cls_name, _, meth = spec.attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                self.absent.append(f"{spec.module}.{spec.attr}")
                continue
            if cls_name:
                targets = [(owner, meth, f"{spec.module}.{spec.attr}")]
            else:
                targets = [
                    (mod, attr, f"{name.removeprefix('scbnn.')}.{attr}")
                    for name, mod in sorted(modules.items())
                    for attr, value in vars(mod).items()
                    if value is original
                ]
            for target, attr, binding in targets:
                self.binding_calls[binding] = 0
                wrapper = self._wrap(original, spec, binding)
                self._patches.append((target, attr, original, wrapper))

    def _wrap(self, fn, spec: LayerSpec, binding: str):
        from scbnn.scgates import counting  # the unwrapped context manager

        stack = self._stack
        clock = time.perf_counter
        layer_name = spec.layer
        bits = spec.bits
        gates_m = spec.gates_m
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                if gates_m is None:
                    return fn(*args, **kwargs)
                with counting() as counts:
                    result = fn(*args, **kwargs)
                tracer._add_gates(gates_m(args, kwargs), counts)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    tracer.root_s += dur
                stats = tracer.layers[layer_name]
                stats.calls += 1
                stats.incl_s += dur
                stats.self_s += dur - child
                if bits is not None:
                    stats.bits += int(bits(args, kwargs))
                if stats.durations is not None:
                    stats.durations.append(dur)
                tracer.binding_calls[binding] += 1

        return wrapper

    def _add_gates(self, M: int, counts) -> None:
        tally = self.gates.setdefault(int(M), GateTally())
        tally.evaluations += 1
        for cls in GATE_CLASSES:
            tally.counts[cls] += getattr(counts, cls)

    @contextmanager
    def install(self):
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)
