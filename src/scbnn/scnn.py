"""SCNN forward pass: stochastic encoding of weights, inputs, and biases,
each divided by its network scale (`weight_scale`, `input_scale` and their
product `bias_scale`), SC dot products, exact activation and output layer.
`_unit_ones` is the one reduction from points to the hidden units' counts of
ones, and the one place a pass range-checks its input points (the network
holds its weights and biases within their scales); `forward_scnn` reads one
point's counts out. `forward_scnn_grid` runs both at every grid row for
`theory`'s one Monte-Carlo trial loop, a chunk of rows at a time.

Independence discipline: every (role, unit i, coordinate j) triple gets its
own substream, so the same input coordinate feeding two units is re-encoded
independently per unit. Results are pure functions of (net, x, config).

Counts are streamed over clocks: each 2^16-clock block of the whole hidden
layer is drawn and reduced before the next, so a forward holds a few MiB at
any M up to `M_FEASIBLE_CAP`. Gate tallies come from the closed form
`energy.layer_energy`, tested against the scalar gates of `scgates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import (_DRAW_BLOCK, EncodingRangeError, StreamKey, _is_length, encode_blocks, fold_seeds, key_layout,
                        zero_pad_bits)
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
        self.key._master_seed()
        if not _is_length(self.M):
            raise ValueError(f"stream length M must be an integer >= 1, got {self.M!r}")
        if self.M > M_FEASIBLE_CAP:
            raise ValueError(f"stream length M={self.M} is too long: a forward pass runs at most 2^26 clocks")


@lru_cache(maxsize=16)
def _key_layout(N: int, n: int) -> np.ndarray:
    """The read-only `key_layout` of the streams of one forward pass."""
    unit, coord = np.arange(N)[:, None], np.arange(n)
    layout = key_layout([("weights", unit, coord), ("inputs", unit, coord), ("bias", unit, 0)])
    layout.flags.writeable = False
    return layout


def _unit_ones(net: ReferenceNetwork, points: np.ndarray, seeds: np.ndarray, M: int, mode: AccumulationMode):
    """The (R, N) counts of ones of the units' accumulators over M clocks at
    the R rows of `points`, row r keyed by seeds[r]. One `encode_blocks` call
    draws every row's S = N(2n + 1) weight, input and bias streams, rows
    [r·S, (r+1)·S) of each clock block, which is reduced as it arrives: APC
    by one `apc_ones` over all R·N units, MUX by `_mux_select` per (row,
    unit) under its select key. A point of a dimension other than `net.n`,
    or a coordinate beyond `net.input_scale` or NaN, is refused before
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
    blocks = encode_blocks(probs, fold_seeds(_key_layout(N, n), seeds).reshape(-1, 2), M)
    apc = mode is AccumulationMode.APC
    select = () if apc else fold_seeds(key_layout([("select", np.arange(N), 0)]), seeds)
    # Only a one-row chunk has several blocks, so only its select generators outlive a block.
    gens = [np.random.Generator(np.random.Philox(key=k)) for k in select[0]] if R == 1 and not apc else ()
    ones = np.zeros((R, N), dtype=np.int64)
    for lo, bits in zip(range(0, M, _DRAW_BLOCK), blocks):
        width = min(_DRAW_BLOCK, M - lo)
        wx_bits, b_bits = np.split(bits.reshape(R, -1, bits.shape[-1]), [2 * N * n], axis=1)
        w_bits, x_bits = wx_bits.reshape(R, 2, N, n, -1).swapaxes(0, 1)
        if apc:
            ones += apc_ones(w_bits, x_bits, b_bits, width)
        else:
            products = zero_pad_bits(~(w_bits ^ x_bits), width)
            for r, i in np.ndindex(R, N):
                gen = gens[i] if gens else np.random.Generator(np.random.Philox(key=select[r, i]))
                ones[r, i] += int(np.bitwise_count(_mux_select([*products[r, i], b_bits[r, i]], width, gen)).sum())
    return ones


def forward_scnn(net: ReferenceNetwork, x, cfg: ScnnConfig, ones=None) -> float:
    """Evaluate the network with M-bit stochastic hidden-layer arithmetic.

    Weights, inputs, and biases are divided by their network scales and
    encoded as bipolar streams, which one `_unit_ones` reduces to the N
    units' counts of ones, refusing an input coordinate beyond
    `net.input_scale`, or NaN, by name. Given `ones`, the counts that
    `forward_scnn_grid` reduced for this point, x and `cfg.key` are unused;
    counts of any shape but (N,) are refused. The decoded preactivations
    times `net.bias_scale` go through the exact activation, and the output
    layer is a float sum in unit order. The result, and the gate ops it
    tallies (`layer_energy(n, M, N, mode)`), equal those of composing
    `sng_encode`, `dot_product_sc` and `activate` per unit.
    """
    N, n, M = net.N, net.n, cfg.M
    if ones is None:
        ones = _unit_ones(net, np.asarray(x, dtype=float).reshape(1, -1), np.array([cfg.key.seed], dtype=np.uint64), M, cfg.mode)[0]
    elif np.shape(ones) != (N,):
        raise ValueError(f"counts of ones of {N} units have shape ({N},), got {np.shape(ones)}")
    add_counts(layer_energy(n, M, N, cfg.mode))
    # APC counts the ones of all n + 1 terms, MUX of one selected term.
    terms, scale = (n + 1, 1) if cfg.mode is AccumulationMode.APC else (1, n + 1)
    pre = (2 * np.asarray(ones) - terms * M) / M * scale * net.bias_scale
    out = 0.0
    for alpha, h in zip(net.output_weights.tolist(), activate(net.activation, pre).tolist()):
        out += alpha * h
    return out


def forward_scnn_grid(net: ReferenceNetwork, grid, cfg: ScnnConfig, *indices: int) -> np.ndarray:
    """`forward_scnn` at every row of `grid`; row p runs under the key
    `cfg.key.derive(*indices, p)`, so each caller keeps its own key scheme
    (a sweep passes (m_index, trial), bound validation (trial,)).

    Rows are reduced to their units' counts of ones by `_unit_ones` a chunk
    at a time: at M up to one clock block, as many rows as `_GRID_BYTES`
    holds in one `encode_blocks` call (the array Philox path from 512
    streams of at most 24 bits), longer rows one by one. Each chunk is
    checked as it is drawn, so a bad row raises `forward_scnn`'s error for
    its first bad coordinate after the chunks before it have run. Each row
    is one `forward_scnn(net, x, cfg, ones)` call on its counts, with its
    own gate tally. A grid with no rows is a ValueError.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if not len(grid):
        raise ValueError("grid is empty")
    M, S = cfg.M, net.N * (2 * net.n + 1)
    seeds = cfg.key.derive_seeds(*indices, rows=len(grid))
    rows = max(1, _GRID_BYTES // (S * (24 + (M + 7) // 8))) if M <= _DRAW_BLOCK else 1
    out = np.empty(len(grid))
    for start in range(0, len(grid), rows):
        points = grid[start : start + rows]
        for r, (x, ones) in enumerate(zip(points, _unit_ones(net, points, seeds[start : start + rows], M, cfg.mode))):
            out[start + r] = forward_scnn(net, x, cfg, ones)
    return out
