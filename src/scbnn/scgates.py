"""SC arithmetic gates: AND/XNOR multipliers, MUX scaled addition, and
parallel-counter accumulation, with optional gate-operation counting.

All gates are pure functions of immutable streams. When a `counting()`
context is active, every gate tallies its abstract operation count; the
same tallies are what the closed-form energy model predicts. An APC is a
counter: `apc_sum` returns the number of ones it added up, and
`dot_product_sc` decodes that count, with the bias stream's ones, itself.

The scalar gates are the reference oracle of the batched forward pass
(`scnn.forward_scnn`), which shares two one-block kernels with them:
`apc_ones`, the per-unit APC count of packed streams, and `_mux_select`,
the MUX selection of one block of `bitstream._DRAW_BLOCK` clocks that
`mux_add` also uses.
"""

from __future__ import annotations

import enum
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .bitstream import (
    _DRAW_BLOCK,
    Bitstream,
    Encoding,
    StreamKey,
    StreamMismatchError,
    decode,
    popcount,
    zero_pad_bits,
)


class AccumulationMode(enum.Enum):
    MUX = "mux"
    APC = "apc"


@dataclass
class GateCounts:
    """Tally of elementary gate operations performed during simulation."""

    xnor_ops: int = 0
    and_ops: int = 0
    mux_select_ops: int = 0
    apc_bit_adds: int = 0

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())

    def __iadd__(self, other: "GateCounts") -> "GateCounts":
        for f in fields(GateCounts):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(GateCounts)}


_active_counts: ContextVar[GateCounts | None] = ContextVar("scbnn_gate_counts", default=None)


@contextmanager
def counting() -> Iterator[GateCounts]:
    """Collect gate-operation tallies for everything run inside the block."""
    counts = GateCounts()
    token = _active_counts.set(counts)
    try:
        yield counts
    finally:
        _active_counts.reset(token)


def add_counts(counts: GateCounts) -> None:
    """Add `counts` to the innermost active counting() block, if any."""
    active = _active_counts.get()
    if active is not None:
        active += counts


def accumulator_width(input_bits: int) -> int:
    """Register width (bits) of a counter absorbing `input_bits` ones:
    the smallest w with 2^w >= input_bits + 2, exact for every integer."""
    return (operator.index(input_bits) + 1).bit_length()


def _check_family(streams: Sequence[Bitstream], gate: str, enc: Encoding | None = None) -> tuple[int, Encoding]:
    """The length and encoding that `streams` share: there is at least one,
    and all agree with the first, or with `enc` if given, in both."""
    if not streams:
        raise StreamMismatchError(f"{gate} requires at least one input stream")
    length, enc = streams[0].length, streams[0].encoding if enc is None else enc
    for s in streams:
        if s.length != length or s.encoding is not enc:
            raise StreamMismatchError(
                f"{gate} inputs disagree: expected length {length} / {enc.value}, "
                f"got {s.length} / {s.encoding.value}"
            )
    return length, enc


def and_mult(a: Bitstream, b: Bitstream) -> Bitstream:
    """Unipolar multiply: bitwise AND, decode(out) estimates x*y."""
    _check_family((a, b), "and_mult", Encoding.UNIPOLAR)
    add_counts(GateCounts(and_ops=a.length))
    return Bitstream(a.bits & b.bits, a.length, Encoding.UNIPOLAR)


def xnor_mult(a: Bitstream, b: Bitstream) -> Bitstream:
    """Bipolar multiply: bitwise XNOR, decode(out) estimates a*b."""
    _check_family((a, b), "xnor_mult", Encoding.BIPOLAR)
    add_counts(GateCounts(xnor_ops=a.length))
    raw = np.bitwise_not(a.bits ^ b.bits)
    return Bitstream(zero_pad_bits(raw, a.length), a.length, Encoding.BIPOLAR)


def mux_add(streams: Sequence[Bitstream], key: StreamKey) -> Bitstream:
    """Scaled addition: each output bit is drawn from a uniformly selected
    input stream, so decode(out) estimates the mean of the inputs.

    A k-input selector is modeled as k-1 binary select cells per clock.
    """
    M, enc = _check_family(streams, "mux_add")
    k = len(streams)
    add_counts(GateCounts(mux_select_ops=(k - 1) * M))
    gen = key.generator()
    out = np.empty_like(streams[0].bits)
    for lo in range(0, M, _DRAW_BLOCK):
        block = slice(lo // 8, (lo + _DRAW_BLOCK) // 8)
        out[block] = _mux_select([s.bits[block] for s in streams], min(_DRAW_BLOCK, M - lo), gen)
    return Bitstream(out, M, enc)


def _mux_select(rows: Sequence[np.ndarray], width: int, gen: np.random.Generator) -> np.ndarray:
    """Packed output of a MUX over one block of packed `width`-bit `rows`
    (at most `_DRAW_BLOCK` clocks): clock t takes its bit from the row that
    draw t of ``gen.integers(0, len(rows), size=width)`` selects. Uncounted.

    A MUX over M clocks keeps one generator under its select key and calls
    this once per block, so selection memory stays O(_DRAW_BLOCK) however
    long the streams are. Successive calls on one generator continue the
    sequence of a single M-draw call exactly when every call but the last
    has an even width, as every block but the last does.

    numpy draws each select from one 32-bit half of a 64-bit Philox word,
    low half first, by Lemire's multiply-and-reject. At k = len(rows) = 2,
    the k of every one-input unit's MUX, it never rejects, and select t is
    the top bit of half t of ``random_raw(ceil(width / 2))``; for an odd
    width the last half is dropped, where `integers` would keep it for its
    next call. Every other k draws through `integers`.
    """
    k = len(rows)
    if k == 2:
        # Low half first on a little-endian host, as numpy's next_uint32 takes it.
        halves = gen.bit_generator.random_raw((width + 1) // 2).view(np.int32)[:width]
        s = np.packbits(halves < 0)  # the top bit; packing `halves >> 31` is ~3x slower
        return (rows[0] & ~s) | (rows[1] & s)
    selection = gen.integers(0, k, size=width)
    out = np.zeros_like(rows[0])
    for c, row in enumerate(rows):
        out |= np.packbits(selection == c) & row
    return out


def apc_sum(streams: Sequence[Bitstream]) -> int:
    """Parallel-counter accumulation: the count of ones over all k streams
    and all M clocks. Unlike MUX addition this is exact: for bipolar
    streams (2*count - k*M) / M is the sum of the decoded inputs, with no
    selection noise.

    Counted work: every input bit is added into a register wide enough for
    the full run, i.e. k*M adds through an accumulator_width(k*M) counter.
    """
    M, _ = _check_family(streams, "apc_sum")
    k = len(streams)
    add_counts(GateCounts(apc_bit_adds=k * M * accumulator_width(k * M)))
    return sum(popcount(s) for s in streams)


def dot_product_sc(
    w_streams: Sequence[Bitstream],
    x_streams: Sequence[Bitstream],
    b_stream: Bitstream,
    mode: AccumulationMode,
    key: StreamKey,
    scale: float = 1.0,
) -> float:
    """Stochastic preactivation w^T x + b over bipolar streams.

    Pairwise XNOR products are accumulated together with the bias stream
    as the (n+1)-th term. MUX mode rescales the lottery output by n+1;
    APC mode folds the constant bias stream into the counter readout (a
    known constant needs no per-bit adder work). The result is multiplied
    by `scale`, the caller's pre-scaling inversion factor.
    """
    n = len(w_streams)
    if n == 0 or n != len(x_streams):
        raise StreamMismatchError(
            f"dimension mismatch: {n} weight streams vs {len(x_streams)} input streams"
        )
    M, _ = _check_family([*w_streams, *x_streams, b_stream], "dot_product_sc", Encoding.BIPOLAR)
    products = [xnor_mult(w, x) for w, x in zip(w_streams, x_streams)]
    if mode is AccumulationMode.APC:
        return (2 * (apc_sum(products) + popcount(b_stream)) - (n + 1) * M) / M * scale
    out = mux_add(products + [b_stream], key)
    return decode(out) * (n + 1) * scale


def apc_ones(w_bits: np.ndarray, x_bits: np.ndarray, b_bits: np.ndarray, M: int) -> np.ndarray:
    """Per unit, the APC count of ones over the n XNOR products of packed
    M-bit weight and input streams, shape (..., n, ceil(M/8)), plus the
    bias stream, shape (..., ceil(M/8)), as an (n+1)-th term: with zero pad
    bits each product has M - popcount(w ^ x) ones. Uncounted: each caller
    tallies the gates it models.
    """
    n = w_bits.shape[-2]
    mismatches = np.bitwise_count(w_bits ^ x_bits).sum(axis=(-2, -1), dtype=np.int64)
    return n * M - mismatches + np.bitwise_count(b_bits).sum(axis=-1, dtype=np.int64)
