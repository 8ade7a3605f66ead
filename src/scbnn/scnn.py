"""SCNN forward pass: stochastic encoding of weights, inputs, and biases,
each divided by its network scale (`weight_scale`, `input_scale` and their
product `bias_scale`), SC dot products, exact activation and output layer.
`forward_scnn_grid` runs it at every grid row for `theory`'s one
Monte-Carlo trial loop.

Independence discipline: every (role, unit i, coordinate j) triple gets its
own substream, so the same input coordinate feeding two units is re-encoded
independently per unit. Results are pure functions of (net, x, config).

The forward pass is streamed over clocks: each block of 2^16 clocks of the
whole hidden layer is drawn and reduced before the next, so one forward
holds a few MiB at any M up to `M_FEASIBLE_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import EncodingRangeError, StreamKey, encode_blocks, key_layout
from .netcore import ReferenceNetwork, activate
from .scgates import AccumulationMode, dot_product_layer


#: Longest stream a forward pass simulates. Memory stays bounded at any M,
#: so this caps run time; `theory.bound_validation` refuses bounds past it.
M_FEASIBLE_CAP = 1 << 26


@dataclass(frozen=True)
class ScnnConfig:
    """Stream length, accumulation mode, and key space for one evaluation."""

    M: int
    key: StreamKey
    mode: AccumulationMode = AccumulationMode.APC

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"stream length M must be >= 1, got {self.M}")
        if self.M > M_FEASIBLE_CAP:
            raise ValueError(f"stream length M={self.M} is too long: a forward pass runs at most 2^26 clocks")


@lru_cache(maxsize=16)
def _key_layout(N: int, n: int) -> np.ndarray:
    """The read-only `key_layout` of the streams of one forward pass."""
    unit, coord = np.arange(N)[:, None], np.arange(n)
    layout = key_layout([("weights", unit, coord), ("inputs", unit, coord), ("bias", unit, 0)])
    layout.flags.writeable = False
    return layout


@lru_cache(maxsize=16)
def _scales(N: int, n: int, weight_scale: float, input_scale: float, bias_scale: float) -> np.ndarray:
    """The read-only scale of each stream in `_key_layout(N, n)` order."""
    scales = np.repeat([weight_scale, input_scale, bias_scale], [N * n, N * n, N])
    scales.flags.writeable = False
    return scales


def forward_scnn(net: ReferenceNetwork, x, cfg: ScnnConfig) -> float:
    """Evaluate the network with M-bit stochastic hidden-layer arithmetic.

    Weights, inputs, and biases are divided by their network scales and
    encoded as bipolar streams, the whole hidden layer in one `encode_blocks`
    call; a value beyond its scale, or NaN, raises EncodingRangeError naming
    the first such role (weights, inputs, bias). The SC products and
    accumulations of all N units run on each block of packed streams as it is
    drawn (`dot_product_layer`), and the decoded preactivations are multiplied
    by `net.bias_scale` before the exact activation. The output layer stays in
    exact reals and is summed in unit order. The result is bit-identical to
    composing `sng_encode`, `dot_product_sc` and `activate` per unit.
    """
    point = np.asarray(x, dtype=float).reshape(-1)
    if point.size != net.n:
        raise ValueError(f"input has dimension {point.size}, network expects {net.n}")
    N, n, M = net.N, net.n, cfg.M
    values = np.empty(2 * N * n + N)
    values[: N * n] = net.hidden_weights.reshape(-1)
    values[N * n : 2 * N * n].reshape(N, n)[:] = point
    values[2 * N * n :] = net.hidden_biases
    scales = _scales(N, n, net.weight_scale, net.input_scale, net.bias_scale)
    if not (inside := np.abs(values) <= scales).all():  # NaN is outside, too
        k = int(np.argmin(inside))
        role = ("weights", "inputs", "bias")[k // (N * n)]
        raise EncodingRangeError(f"|{float(values[k])!r}| exceeds the {role} pre-scale factor {float(scales[k])!r}")
    probs = (values / scales + 1.0) / 2.0
    keys = cfg.key.fold_layout(_key_layout(N, n))
    layer = (
        (bits[: N * n].reshape(N, n, -1), bits[N * n : 2 * N * n].reshape(N, n, -1), bits[2 * N * n :])
        for bits in encode_blocks(probs, keys, M)
    )
    select = None
    if cfg.mode is AccumulationMode.MUX:
        select = [cfg.key.substream("select", i) for i in range(N)]
    pre = dot_product_layer(layer, M, cfg.mode, select, scale=net.bias_scale)
    out = 0.0
    for alpha, h in zip(net.output_weights.tolist(), activate(net.activation, pre).tolist()):
        out += alpha * h
    return out


def forward_scnn_grid(net: ReferenceNetwork, grid, cfg: ScnnConfig, *indices: int) -> np.ndarray:
    """`forward_scnn` at every row of `grid`; row p runs under the key
    `cfg.key.derive(*indices, p)`, so each caller keeps its own key scheme
    (a sweep passes (m_index, trial), bound validation (trial,)).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    return np.array([
        forward_scnn(net, x, ScnnConfig(cfg.M, cfg.key.derive(*indices, p), cfg.mode))
        for p, x in enumerate(grid)
    ])
