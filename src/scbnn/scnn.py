"""SCNN forward pass: stochastic encoding of weights, inputs, and biases,
each divided by its network scale (`weight_scale`, `input_scale` and their
product `bias_scale`), SC dot products, exact activation and output layer.
The network holds its weights and biases within their scales, so a pass
range-checks only its input point, in `_draw`, the one entry from points
to streams. `forward_scnn_grid` runs it at every grid row for `theory`'s
one Monte-Carlo trial loop, drawing the streams of a chunk of rows at once.

Independence discipline: every (role, unit i, coordinate j) triple gets its
own substream, so the same input coordinate feeding two units is re-encoded
independently per unit. Results are pure functions of (net, x, config).

The forward pass is streamed over clocks: each block of 2^16 clocks of the
whole hidden layer is drawn and reduced before the next (APC by `apc_ones`,
MUX by `_mux_select` per unit, one select generator per unit kept across
blocks), so one forward holds a few MiB at any M up to `M_FEASIBLE_CAP`.
Gate tallies come from the closed form `energy.layer_energy`; the scalar
gates of `scgates` are the oracle they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import _DRAW_BLOCK, EncodingRangeError, StreamKey, encode_blocks, fold_seeds, key_layout, zero_pad_bits
from .energy import layer_energy
from .netcore import ReferenceNetwork, activate
from .scgates import AccumulationMode, _mux_select, add_counts, apc_ones


#: Longest stream a forward pass simulates. Memory stays bounded at any M,
#: so this caps run time; `theory.bound_validation` refuses bounds past it.
M_FEASIBLE_CAP = 1 << 26

#: Bytes of probabilities, Philox keys and packed bits (8 + 16 + ceil(M/8)
#: per stream) that a chunk draw of `forward_scnn_grid` holds: as many rows
#: as fit, at least one. A sweep grid of the README's N = 32 net (17 rows of
#: 96 streams) is one chunk up to M = 2^12.
_GRID_BYTES = 1 << 20


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


def _draw(net: ReferenceNetwork, points: np.ndarray, seeds: np.ndarray, M: int):
    """`encode_blocks` of the hidden-layer streams of one forward pass per
    point, the rows of `points`, point r keyed by seeds[r]: rows [r·S, (r+1)·S)
    of each block, S = N(2n + 1), are its weight, input and bias streams, each
    value divided by its network scale. A point of a dimension other than
    `net.n`, or a coordinate beyond `net.input_scale` or NaN, is refused before
    anything is drawn, naming the first such coordinate in row order."""
    R, N, n = len(points), net.N, net.n
    if points.shape[-1] != n:
        raise ValueError(f"input has dimension {points.shape[-1]}, network expects {n}")
    if not (inside := np.abs(points) <= net.input_scale).all():  # NaN is outside, too
        v = float(points.flat[np.argmin(inside)])
        raise EncodingRangeError(f"|{v!r}| exceeds the inputs pre-scale factor {net.input_scale!r}")
    probs = np.empty((R, 2 * N * n + N))
    np.divide(net.hidden_weights.reshape(-1), net.weight_scale, out=probs[:, : N * n])
    probs[:, N * n : 2 * N * n] = np.tile(points / net.input_scale, N)
    np.divide(net.hidden_biases, net.bias_scale, out=probs[:, 2 * N * n :])
    probs += 1.0
    probs /= 2.0
    return encode_blocks(probs, fold_seeds(_key_layout(N, n), seeds).reshape(-1, 2), M)


def forward_scnn(net: ReferenceNetwork, x, cfg: ScnnConfig, blocks=None) -> float:
    """Evaluate the network with M-bit stochastic hidden-layer arithmetic.

    Weights, inputs, and biases are divided by their network scales and
    encoded as bipolar streams, the whole hidden layer by one `_draw`, which
    refuses an input coordinate beyond `net.input_scale`, or NaN, naming it.
    Given `blocks`, the clock blocks of this point's S = N(2n + 1) streams
    under `cfg.key` that `forward_scnn_grid` drew, x is unused; block lo
    must have shape (S, ceil(w/8)), w = min(2^16, M - lo), and together they
    must cover exactly M clocks. All N units run XNOR and accumulation on
    each block as it arrives; the decoded preactivations times
    `net.bias_scale` go through the exact activation, and the output layer
    is summed in exact reals in unit order. The result, and the gate ops it
    tallies (`layer_energy(n, M, N, mode)`), equal those of composing
    `sng_encode`, `dot_product_sc` and `activate` per unit.
    """
    N, n, M, S = net.N, net.n, cfg.M, net.N * (2 * net.n + 1)
    if blocks is None:
        blocks = _draw(net, np.asarray(x, dtype=float).reshape(1, -1), np.array([cfg.key.seed], dtype=np.uint64), M)
    apc = cfg.mode is AccumulationMode.APC
    if not apc:
        select = cfg.key.substream_keys([("select", np.arange(N), 0)])
        gens = [np.random.Generator(np.random.Philox(key=k)) for k in select]
    ones, lo = np.zeros(N, dtype=np.int64), 0
    for bits in blocks:
        width = min(_DRAW_BLOCK, M - lo)
        if width < 1 or bits.shape != (S, (width + 7) // 8):
            raise ValueError(f"blocks of M={M} clocks are ({S}, ceil(w/8)); one at clock {lo} has shape {bits.shape}")
        w_bits, x_bits = bits[: 2 * N * n].reshape(2, N, n, -1)
        b_bits = bits[2 * N * n :]
        if apc:
            ones += apc_ones(w_bits, x_bits, b_bits, width)
        else:
            products = zero_pad_bits(~(w_bits ^ x_bits), width)
            for i, gen in enumerate(gens):
                ones[i] += int(np.bitwise_count(_mux_select([*products[i], b_bits[i]], width, gen)).sum())
        lo += width
    if lo < M:
        raise ValueError(f"blocks of M={M} clocks end at clock {lo}")
    add_counts(layer_energy(n, M, N, cfg.mode))
    if apc:
        pre = (2 * ones - (n + 1) * M) / M * net.bias_scale
    else:
        pre = (2 * ones - M) / M * (n + 1) * net.bias_scale
    out = 0.0
    for alpha, h in zip(net.output_weights.tolist(), activate(net.activation, pre).tolist()):
        out += alpha * h
    return out


def forward_scnn_grid(net: ReferenceNetwork, grid, cfg: ScnnConfig, *indices: int) -> np.ndarray:
    """`forward_scnn` at every row of `grid`; row p runs under the key
    `cfg.key.derive(*indices, p)`, so each caller keeps its own key scheme
    (a sweep passes (m_index, trial), bound validation (trial,)).

    Rows are drawn by `_draw` a chunk at a time: at M up to one clock block,
    as many rows as `_GRID_BYTES` holds in one `encode_blocks` call (the
    array Philox path from 512 streams of at most 24 bits), longer rows one
    by one. Each chunk is checked as it is drawn, so a bad row raises
    `forward_scnn`'s error for its first bad coordinate after the chunks
    before it have run. Each row is one `forward_scnn` call on its own clock
    blocks, with its own gate tally. A grid with no rows is a ValueError.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if not len(grid):
        raise ValueError("grid is empty")
    M, S = cfg.M, net.N * (2 * net.n + 1)
    seeds = cfg.key.derive_seeds(*indices, rows=len(grid))
    rows = max(1, _GRID_BYTES // (S * (24 + (M + 7) // 8))) if M <= _DRAW_BLOCK else 1
    out = np.empty(len(grid))
    for start in range(0, len(grid), rows):
        points, chunk_seeds = grid[start : start + rows], seeds[start : start + rows]
        chunk = _draw(net, points, chunk_seeds, M)  # several rows only at M <= _DRAW_BLOCK, so in one block
        per_row = [chunk] if len(points) == 1 else [[block] for block in next(chunk).reshape(len(points), S, -1)]
        for r, (x, seed, blocks) in enumerate(zip(points, chunk_seeds.tolist(), per_row)):
            out[start + r] = forward_scnn(net, x, ScnnConfig(M, StreamKey(seed), cfg.mode), blocks)
    return out
