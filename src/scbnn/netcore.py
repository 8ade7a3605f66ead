"""Real-valued reference networks: one hidden layer of sigmoidal units,
target functions on the unit cube, a deterministic random-feature fitter,
and the JSON weight-file format. It also owns what every file shares: the
one JSON reader and writer, and the typed field readers (`_require*`) that
all three network loaders are built from, so one number rule holds for all.

Pre-scaling is part of the network: a bipolar stream carries values in
[-1, 1], so a network holds a weight scale and an input scale, and its
bias scale is their product, the one factor the stochastic pass un-scales
all n+1 accumulated terms by. The network refuses a hidden weight or bias
beyond its scale. A weight file states all three scales; the reader
refuses a bias scale that is not the product.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bitstream import StreamKey


class SchemaError(ValueError):
    """A weight file violates the expected schema."""


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"

    @property
    def derivative_bound(self) -> float:
        """Supremum of |derivative| over the reals."""
        return 0.25 if self is Activation.SIGMOID else 1.0


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def activate(a: Activation, t):
    """Activation value; accepts scalars or arrays."""
    arr = np.asarray(t, dtype=float)
    if a is Activation.SIGMOID:
        out = _sigmoid(arr)
    elif a is Activation.TANH:
        out = np.tanh(arr)
    else:
        out = np.maximum(arr, 0.0)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def activate_deriv(a: Activation, t):
    """Closed-form derivative (relu uses the a.e. derivative, 0 at 0)."""
    arr = np.asarray(t, dtype=float)
    if a is Activation.SIGMOID:
        s = _sigmoid(arr)
        out = s * (1.0 - s)
    elif a is Activation.TANH:
        out = 1.0 - np.tanh(arr) ** 2
    else:
        out = (arr > 0).astype(float)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def pow2_scale(bound: float) -> float:
    """Smallest power of two >= max(1, bound).

    Dividing by a power-of-two scale and multiplying back is exact (pure
    exponent shifts, no rounding).
    """
    b = max(1.0, float(bound))
    frac, exp = math.frexp(b)
    if frac == 0.5:  # already a power of two
        exp -= 1
    return math.ldexp(1.0, exp)


@dataclass
class ReferenceNetwork:
    """One-hidden-layer network G(x) = sum_i alpha_i * act(w_i . x + b_i).

    `weight_scale` and `input_scale` map weights and inputs into the
    bipolar range; biases are scaled by their product, `bias_scale`. A
    hidden weight or bias beyond its scale is a ValueError naming the first
    such entry: no stream encodes it.
    """

    hidden_weights: np.ndarray  # (N, n)
    hidden_biases: np.ndarray  # (N,)
    output_weights: np.ndarray  # (N,)
    activation: Activation
    weight_scale: float
    input_scale: float = 1.0
    name: str = "network"
    fit_sup_error: float | None = field(default=None, compare=False)

    def __post_init__(self):
        self.hidden_weights = np.atleast_2d(np.asarray(self.hidden_weights, dtype=float))
        self.hidden_biases = np.asarray(self.hidden_biases, dtype=float).reshape(-1)
        self.output_weights = np.asarray(self.output_weights, dtype=float).reshape(-1)
        N, n = self.hidden_weights.shape
        if N < 1 or n < 1:
            raise ValueError(f"network needs N >= 1 and n >= 1, got N={N}, n={n}")
        if self.hidden_biases.shape != (N,) or self.output_weights.shape != (N,):
            raise ValueError(
                f"inconsistent shapes: weights {self.hidden_weights.shape}, "
                f"biases {self.hidden_biases.shape}, outputs {self.output_weights.shape}"
            )
        for label, arr in (
            ("hidden_weights", self.hidden_weights),
            ("hidden_biases", self.hidden_biases),
            ("output_weights", self.output_weights),
        ):
            if not np.isfinite(arr).all():
                raise ValueError(f"{label} contains non-finite values")
        self.weight_scale, self.input_scale = float(self.weight_scale), float(self.input_scale)
        for label, scale in (("weight", self.weight_scale), ("input", self.input_scale), ("bias", self.bias_scale)):
            if not (scale > 0 and math.isfinite(scale)):
                raise ValueError(f"{label} scale must be a positive finite real, got {scale!r}")
        for key, arr, role, scale in (
            ("hidden_weights", self.hidden_weights, "weights", self.weight_scale),
            ("hidden_biases", self.hidden_biases, "bias", self.bias_scale),
        ):
            if (over := np.argwhere(np.abs(arr) > scale)).size:
                index = tuple(over[0].tolist())
                at = "".join(f"[{i}]" for i in index)
                raise ValueError(f"field '{key}{at}' is {float(arr[index])!r}, beyond the {role} pre-scale factor {scale!r}")

    @property
    def bias_scale(self) -> float:
        return self.weight_scale * self.input_scale

    @property
    def n(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def N(self) -> int:
        return self.hidden_weights.shape[0]

    @property
    def alpha_sum(self) -> float:
        return float(np.abs(self.output_weights).sum())


def forward_reference(net: ReferenceNetwork, x) -> float | np.ndarray:
    """Exact evaluation of the network at a point (n,) or batch (P, n)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != net.n:
        raise ValueError(f"input has dimension {pts.shape[1]}, network expects {net.n}")
    z = pts @ net.hidden_weights.T + net.hidden_biases
    out = activate(net.activation, z) @ net.output_weights
    return float(out[0]) if single else out


@dataclass(frozen=True)
class TargetFunction:
    """Named continuous function on the unit cube [0, 1]^n."""

    name: str
    n: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float | np.ndarray:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        if pts.shape[1] != self.n:
            raise ValueError(f"point has dimension {pts.shape[1]}, target expects {self.n}")
        with np.errstate(all="ignore"):
            vals = np.asarray(self.fn(pts), dtype=float).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"target {self.name!r} is {float(vals[bad[0]])!r} at x = {pts[bad[0]].tolist()}, not finite")
        return float(vals[0]) if single else vals


#: Each target's parameters with their defaults, and its values at points
#: of shape (P, n) given those parameters.
_TARGETS = {
    "constant": ({"value": 0.3}, lambda pts, value: np.full(pts.shape[0], value)),
    "linear": ({}, lambda pts: pts.mean(axis=1)),
    "sine": ({"cycles": 1.0}, lambda pts, cycles: np.sin(2.0 * math.pi * cycles * pts.mean(axis=1))),
    "bump": (
        {"width": 0.15},
        lambda pts, width: np.exp(-((pts - 0.5) ** 2).sum(axis=1) / (2.0 * width**2)),
    ),
}


def make_target(name: str, n: int = 1, **params) -> TargetFunction:
    """Target registry; raises ValueError for unknown names, for parameters
    the target does not take, for non-finite parameter values and for a
    bump of width <= 0. Calling the target raises ValueError at the first
    point where its value is not finite."""
    if name not in _TARGETS:
        raise ValueError(f"unknown target function {name!r}")
    defaults, fn = _TARGETS[name]
    kwargs = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"target {name!r} has no parameter {key!r} (takes: {', '.join(defaults) or 'none'})")
        kwargs[key] = float(value)
        if not math.isfinite(kwargs[key]):
            raise ValueError(f"target parameter {key}={value!r} must be finite")
    if name == "bump" and kwargs["width"] <= 0:
        raise ValueError(f"target parameter width={kwargs['width']!r} must be > 0")
    return TargetFunction(name, n, lambda pts: fn(pts, **kwargs))


_DEFAULT_GRID_POINTS = {1: 256, 2: 64, 3: 16}

#: Largest grid `unit_grid` builds: 2^20 points of n float64 coordinates.
#: The default of 8 points per axis passes it up to n = 6 (262,144 points).
MAX_GRID_POINTS = 1 << 20


def unit_grid(n: int, points_per_axis: int | None = None) -> np.ndarray:
    """Uniform grid over [0, 1]^n as a (points^n, n) array."""
    if n < 1:
        raise ValueError(f"grid dimension must be >= 1, got {n}")
    p = _DEFAULT_GRID_POINTS.get(n, 8) if points_per_axis is None else points_per_axis
    if p < 1:
        raise ValueError(f"points per axis must be >= 1, got {p}")
    if p**n > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid of {p} points per axis in n={n} dimensions has {p**n} points, "
            f"more than the limit of {MAX_GRID_POINTS}"
        )
    axis = np.linspace(0.0, 1.0, p)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


#: Hidden parameters are drawn from this symmetric range. 4 with tanh gives
#: the same feature geometry as 8 with sigmoid but halves the pre-scale
#: factor, and with it the stochastic-arithmetic noise of fitted networks.
HIDDEN_PARAM_RANGE = 4.0
FIT_RIDGE = 1e-8
FIT_NOISE_PENALTY = 1e-3
_NOISE_BALANCE_ITERS = 12
#: Stream length the noise-balancing penalty is normalized at; only sets
#: the meaning of FIT_NOISE_PENALTY, not which M the network runs at.
_NOISE_REF_M = 4096


def _draw_hidden(N: int, n: int, key: StreamKey, edge_fraction: float):
    """Hidden-parameter draw: edge units then plain units.

    Edge units are steep (|w| in the top 20% of the range) with their
    transition anchored at a stratified point of the unit cube, which
    spreads activation edges evenly; plain units are uniform draws and
    mostly saturate, carrying constant components almost noise-free.
    """
    gen = key.substream("fit").generator()
    hi = HIDDEN_PARAM_RANGE
    W = np.empty((N, n))
    b = np.empty(N)
    n_edge = int(round(edge_fraction * N))
    for i in range(n_edge):
        w = gen.choice([-1.0, 1.0], size=n) * gen.uniform(0.8 * hi, hi, size=n)
        anchor = (i + gen.uniform(0.0, 1.0, size=n)) / n_edge
        W[i] = w
        b[i] = -float(w @ anchor)
    for i in range(n_edge, N):
        W[i] = gen.uniform(-hi, hi, size=n)
        b[i] = gen.uniform(-hi, hi)
    return W, b


def _noise_coefficients(W, b, grid, activation, s_w, M):
    """Per (grid point, unit): variance that one unit of output weight
    would add to the stochastic forward pass, from the encoding variances
    of the product and bias streams and the activation slope. The input
    scale is 1, so `s_w` scales the biases too."""
    z = grid @ W.T + b
    d = activate_deriv(activation, z)  # (P, N)
    wv = W / s_w  # encoded weight values
    bv = b / s_w
    prod_var = ((1.0 - (wv[None, :, :] * grid[:, None, :]) ** 2)).sum(axis=2)  # (P, N)
    v = prod_var + (1.0 - bv**2)[None, :]
    return d**2 * v * (s_w**2) / M


def fit_reference(
    f: TargetFunction,
    N: int,
    grid: np.ndarray,
    key: StreamKey,
    activation: Activation = Activation.TANH,
    ridge: float = FIT_RIDGE,
    noise_penalty: float = FIT_NOISE_PENALTY,
    edge_fraction: float = 0.5,
) -> ReferenceNetwork:
    """Noise-balanced random-feature least squares fit of `f` on the grid.

    Hidden weights/biases are drawn deterministically from `key`; only the
    output weights are solved. The solve is ridge-regularized least squares
    with an extra generalized penalty that charges each coefficient for the
    stochastic-arithmetic noise its unit would inject, reweighted a few
    times toward the worst grid point so the noise profile comes out flat.
    Networks fitted this way stay accurate *and* usable at moderate stream
    lengths; plain ridge alone produces large cancelling coefficients whose
    noise drowns the stochastic forward pass. The returned network records
    its achieved grid sup-error. A ridge too small to make the normal
    equations solvable raises `np.linalg.LinAlgError`.
    """
    if N < 1:
        raise ValueError(f"hidden width must be >= 1, got {N}")
    if not 0.0 <= edge_fraction <= 1.0:
        raise ValueError(f"edge_fraction must lie in [0, 1], got {edge_fraction}")
    for name, value in (("ridge", ridge), ("noise_penalty", noise_penalty)):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("fit grid is empty")
    n = grid.shape[1]
    P = grid.shape[0]
    W, b = _draw_hidden(N, n, key, edge_fraction)
    s_w = pow2_scale(max(np.abs(W).max(), np.abs(b).max()))  # inputs lie in [0, 1]: input scale 1
    features = activate(activation, grid @ W.T + b)
    y = np.asarray(f(grid), dtype=float).reshape(-1)
    gram = features.T @ features
    rhs = features.T @ y
    noise = _noise_coefficients(W, b, grid, activation, s_w, _NOISE_REF_M)
    point_weights = np.full(P, 1.0 / P)
    for _ in range(_NOISE_BALANCE_ITERS):
        diag = ridge + noise_penalty * P * (point_weights[:, None] * noise).sum(axis=0)
        alpha = np.linalg.solve(gram + np.diag(diag), rhs)  # LinAlgError if singular
        if not np.isfinite(alpha).all():
            raise np.linalg.LinAlgError("the normal equations have no finite solution")
        if noise_penalty <= 0.0:
            break
        per_point = noise @ (alpha**2)
        point_weights = point_weights * np.exp(2.0 * per_point / max(per_point.max(), 1e-300))
        point_weights /= point_weights.sum()
    net = ReferenceNetwork(
        hidden_weights=W,
        hidden_biases=b,
        output_weights=alpha,
        activation=activation,
        weight_scale=s_w,
        name=f"{f.name}-n{n}-N{N}",
    )
    net.fit_sup_error = sup_error(net, f, grid)
    return net


def sup_error(net: ReferenceNetwork, f: TargetFunction, grid: np.ndarray) -> float:
    """max over the grid of |G(x) - f(x)|."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid is empty")
    return float(np.abs(forward_reference(net, grid) - f(grid)).max())


# ---------------------------------------------------------------------------
# JSON files: one reader, one writer and the typed field readers; a fault is
# a one-line SchemaError naming the file and the field.

def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token!r} not permitted")


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key it repeats is a SchemaError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise SchemaError(f"repeated key {next(key for key in keys if keys.count(key) > 1)!r}")
    return doc


def load_json_object(path: str | os.PathLike, what: str) -> dict:
    """The JSON object in the file at `path`, `what` naming it in errors.

    Every JSON input goes through here, so NaN and Infinity and a key
    repeated within one object are rejected everywhere, and malformed or
    too deeply nested JSON is a one-line SchemaError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: {what} must contain a JSON object")
    return doc


def save_json(path: str | os.PathLike, doc: dict) -> None:
    """Write `doc` indented, keys sorted, with a final newline: the one
    writer of every JSON file the package produces. NaN and Infinity are
    refused, as `load_json_object` refuses them. The text is streamed to
    the file, not built whole in memory (for a bundle that is megabytes),
    so a value `json` cannot encode removes the partial file and raises."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError):
            fh.close()
            os.remove(path)
            raise
        fh.write("\n")


def _check_json_type(value, kind, what: str):
    """`value` if it has the JSON type `kind` (int, float, str, list or dict),
    else a SchemaError naming `what`. A bool is neither an int nor a number.
    `kind` float is the number rule: an int or a float that is finite as a
    float64, which comes back as a float."""
    if kind is float:
        with contextlib.suppress(OverflowError):
            if type(value) in (int, float) and math.isfinite(value := float(value)):
                return value
        raise SchemaError(f"{what} must be a finite number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"{what} must be {kind.__name__}")
    return value


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    return _check_json_type(doc[key], kind, f"{where}: field {key!r}")


def _require_header(doc: dict, where: str, *sizes: str) -> tuple:
    """(name, activation, *sizes) of a network file, each size a positive int."""
    name = _require(doc, "name", str, where)
    activation = _require(doc, "activation", str, where)
    if activation not in {a.value for a in Activation}:
        raise SchemaError(f"{where}: unknown activation {activation!r}")
    values = [_require(doc, key, int, where) for key in sizes]
    for key, value in zip(sizes, values):
        if value < 1:
            raise SchemaError(f"{where}: field {key!r} must be >= 1, got {value}")
    return (name, Activation(activation), *values)


def _require_list(doc: dict, key: str, shape: tuple, where: str) -> list:
    """The entries of the list under `key`, row after row: `shape[0]`
    entries, each itself a list of `shape[1]` entries for a 2-d shape."""
    items = _require(doc, key, list, where)
    if len(items) != shape[0]:
        raise SchemaError(f"{where}: field {key!r} has {len(items)} entries, expected {shape[0]}")
    if len(shape) == 1:
        return items
    for i, row in enumerate(items):
        if type(row) is not list or len(row) != shape[1]:
            raise SchemaError(f"{where}: field '{key}[{i}]' must be a list of {shape[1]} entries")
    return list(itertools.chain.from_iterable(items))


def _require_numbers(doc: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    """The numbers under `key` as a float array of `shape`, each entry under
    the number rule of `_check_json_type`; a fault names its entry."""
    flat = _require_list(doc, key, shape, where)
    if set(map(type, flat)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            if np.isfinite(arr := np.fromiter(flat, float, len(flat))).all():
                return arr.reshape(shape)
    at = ("[" + "][".join(map(str, index)) + "]" for index in np.ndindex(shape))
    checked = [_check_json_type(v, float, f"{where}: field '{key}{i}'") for i, v in zip(at, flat)]
    return np.array(checked).reshape(shape)


def network_to_dict(net: ReferenceNetwork) -> dict:
    return {
        "name": net.name,
        "n": net.n,
        "N": net.N,
        "activation": net.activation.value,
        "hidden_weights": [[float(v) for v in row] for row in net.hidden_weights],
        "hidden_biases": [float(v) for v in net.hidden_biases],
        "output_weights": [float(v) for v in net.output_weights],
        "prescale": {"weights": net.weight_scale, "inputs": net.input_scale, "bias": net.bias_scale},
    }


def network_from_dict(doc: dict, where: str = "weight file") -> ReferenceNetwork:
    name, activation, n, N = _require_header(doc, where, "n", "N")
    pres = _require(doc, "prescale", dict, where)
    scales = {role: _require(pres, role, float, f"{where}: prescale") for role in ("weights", "inputs", "bias")}
    for role, scale in scales.items():
        if not scale > 0:
            raise SchemaError(f"{where}: prescale {role!r} must be > 0, got {scale!r}")
    # The network derives its bias scale as this product.
    if scales["bias"] != (product := scales["weights"] * scales["inputs"]):
        raise SchemaError(f"{where}: prescale 'bias' is {scales['bias']!r}, not weights * inputs = {product!r}")
    weights = _require_numbers(doc, "hidden_weights", (N, n), where)
    biases = _require_numbers(doc, "hidden_biases", (N,), where)
    outputs = _require_numbers(doc, "output_weights", (N,), where)
    try:
        return ReferenceNetwork(weights, biases, outputs, activation, scales["weights"], scales["inputs"], name)
    except ValueError as exc:  # a weight or bias beyond its pre-scale factor
        raise SchemaError(f"{where}: {exc}") from None
