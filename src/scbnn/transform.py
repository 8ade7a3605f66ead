"""BNN <-> SCNN equivalence: chunk m binary values into n = m/M bipolar
streams of length M and back, bit-exactly, and the stream-bundle file.

A +/-1 vector is already a bipolar `Bitstream` of m bits, so chunking is a
reshape of its bits into n rows of M (`chunk_bits`, which chunks a stack of
vectors at once) and joining is `concat`. Chunk order is storage order:
stream j takes bits jM .. (j+1)M - 1. The bias stream is
the bias bit sign-extended to M clocks (a constant +/-1 stream), so the APC
total over the n+1 term streams reproduces the BNN integer preactivation
with the bias weighted by M:

    2*total - (n+1)*M == w.x + M*b

The equivalence check evaluates that identity for all units on packed
arrays, and a stream bundle's hex lines are parsed a unit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import Bitstream, Encoding, concat, to_hex_line
from .bnn import BinaryNetwork, binary_dot
from .netcore import Activation, SchemaError, _require, _require_activation, _require_streams
from .scgates import GateCounts, accumulator_width, add_counts


class ChunkError(ValueError):
    """Chunk length incompatible with the bit budget."""


@dataclass(frozen=True)
class ChunkSpec:
    """Split of m bits into n = m/M streams; M must divide m exactly."""

    m: int
    M: int

    def __post_init__(self):
        if self.m < 1 or self.M < 1:
            raise ChunkError(f"need m >= 1 and M >= 1, got m={self.m}, M={self.M}")
        if self.m % self.M != 0:
            raise ChunkError(f"chunk length M={self.M} does not divide m={self.m}")

    @property
    def n(self) -> int:
        return self.m // self.M


def chunk_bits(bits: np.ndarray, m: int, M: int) -> np.ndarray:
    """Chunk packed m-bit vectors, shape (..., ceil(m/8)), into packed
    n = m/M chunks of M bits, shape (..., n, ceil(M/8)), with zero pad bits."""
    n = ChunkSpec(m, M).n
    unpacked = np.unpackbits(bits, axis=-1, count=m)
    return np.packbits(unpacked.reshape(*bits.shape[:-1], n, M), axis=-1)


def split_vector(v: Bitstream, M: int) -> list[Bitstream]:
    """Chunk a +/-1 vector into n bipolar streams of length M."""
    return [Bitstream(row, M, Encoding.BIPOLAR) for row in chunk_bits(v.bits, v.length, M)]


def join_streams(streams: list[Bitstream]) -> Bitstream:
    """Concatenate equal-length bipolar streams back into a +/-1 vector."""
    if not streams:
        raise ChunkError("cannot join an empty stream list")
    M = streams[0].length
    for idx, s in enumerate(streams):
        if s.length != M:
            raise ChunkError(f"stream {idx} has length {s.length}, expected {M}")
        if s.encoding is not Encoding.BIPOLAR:
            raise ChunkError(f"stream {idx} is {s.encoding.value}, expected bipolar")
    return concat(*streams)


def sign_extension_stream(bias: int, M: int) -> Bitstream:
    """The bias bit repeated for M clocks (a constant +/-1 stream)."""
    if bias not in (-1, 1):
        raise ValueError(f"binary bias must be +1 or -1, got {bias}")
    return Bitstream.constant(1 if bias == 1 else 0, M, Encoding.BIPOLAR)


@dataclass
class ScnnStreamBundle:
    """SCNN-form view of a BNN: per-unit weight streams, sign-extended bias
    streams, and optionally the chunked input streams."""

    M: int
    weight_streams: list[list[Bitstream]]  # N x n
    bias_streams: list[Bitstream]  # N
    output_weights: np.ndarray
    activation: Activation
    input_streams: list[Bitstream] | None = None
    name: str = "scnn-streams"

    @property
    def N(self) -> int:
        return len(self.weight_streams)

    @property
    def n(self) -> int:
        return len(self.weight_streams[0])

    @property
    def m(self) -> int:
        return self.n * self.M


def chunk_network(bnet: BinaryNetwork, M: int) -> ScnnStreamBundle:
    """Chunk every unit's weight bits; sign-extend every bias."""
    return ScnnStreamBundle(
        M=M,
        weight_streams=[split_vector(w, M) for w in bnet.binary_weights],
        bias_streams=[sign_extension_stream(int(b), M) for b in bnet.binary_biases],
        output_weights=bnet.output_weights.copy(),
        activation=bnet.activation,
        name=f"{bnet.name}-M{M}",
    )


def bnn_to_scnn(bnet: BinaryNetwork, x_B: Bitstream, M: int) -> ScnnStreamBundle:
    """Transform a BNN plus one input vector into SCNN stream form."""
    if x_B.length != bnet.m:
        raise ChunkError(f"input has {x_B.length} bits, network has m={bnet.m}")
    bundle = chunk_network(bnet, M)
    bundle.input_streams = split_vector(x_B, M)
    return bundle


def scnn_to_bnn(bundle: ScnnStreamBundle) -> tuple[BinaryNetwork, Bitstream | None]:
    """Exact inverse of bnn_to_scnn: concatenate chunks in order.

    Bias streams must be constant (a sign extension); anything else has no
    single-bit preimage.
    """
    biases = []
    for i, b in enumerate(bundle.bias_streams):
        ones = int(np.bitwise_count(b.bits).sum())
        if ones == b.length:
            biases.append(1)
        elif ones == 0:
            biases.append(-1)
        else:
            raise ChunkError(f"bias stream {i} is not a sign extension ({ones}/{b.length} ones)")
    weights = [join_streams(unit) for unit in bundle.weight_streams]
    bnet = BinaryNetwork(
        binary_weights=weights,
        binary_biases=np.array(biases, dtype=int),
        output_weights=bundle.output_weights.copy(),
        activation=bundle.activation,
        name=bundle.name,
    )
    if bnet.m != bundle.n * bundle.M:
        raise ChunkError(f"joined units have {bnet.m} bits, expected n*M = {bundle.n * bundle.M}")
    x_B = join_streams(bundle.input_streams) if bundle.input_streams else None
    return bnet, x_B


# ---------------------------------------------------------------------------
# Stream-bundle file: the header fields plus hex lines (see bitstream).

def bundle_to_dict(bundle: ScnnStreamBundle) -> dict:
    return {
        "form": "scnn-streams",
        "name": bundle.name,
        "M": bundle.M,
        "n": bundle.n,
        "N": bundle.N,
        "activation": bundle.activation.value,
        "output_weights": [float(a) for a in bundle.output_weights],
        "weight_streams": [[to_hex_line(s) for s in unit] for unit in bundle.weight_streams],
        "bias_streams": [to_hex_line(s) for s in bundle.bias_streams],
    }


def bundle_from_dict(doc: dict, where: str = "stream bundle") -> ScnnStreamBundle:
    """Parse a stream-bundle document, checking its M, n and N headers
    against the streams and lists it holds (a unit's lines at a time)."""
    M = _require(doc, "M", int, where)
    n = _require(doc, "n", int, where)
    N = _require(doc, "N", int, where)
    if M < 1 or n < 1 or N < 1:
        raise SchemaError(f"{where}: M, n and N must be >= 1, got M={M}, n={n}, N={N}")
    name = _require(doc, "name", str, where)
    activation = _require_activation(doc, where)
    rows = _require(doc, "weight_streams", list, where)
    biases = _require(doc, "bias_streams", list, where)
    outputs = _require(doc, "output_weights", list, where)
    for field, items in (("weight_streams", rows), ("bias_streams", biases), ("output_weights", outputs)):
        if len(items) != N:
            raise SchemaError(f"{where}: {field} has {len(items)} entries, expected N={N}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}: weight_streams[{i}] must be a list of n={n} streams")
    for i, a in enumerate(outputs):
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise SchemaError(f"{where}: output_weights[{i}] must be a number")
    return ScnnStreamBundle(
        M=M,
        weight_streams=[_require_streams(row, M, f"{where}: weight_streams[{i}]") for i, row in enumerate(rows)],
        bias_streams=_require_streams(biases, M, f"{where}: bias_streams"),
        output_weights=np.array(outputs, dtype=float),
        activation=activation,
        name=name,
    )


@dataclass(frozen=True)
class UnitEquivalence:
    unit: int
    bnn_preactivation: int  # w.x + b
    sc_total: int  # APC total over the n+1 term streams
    lhs: int  # 2*total - (n+1)*M
    rhs: int  # w.x + M*b
    passed: bool


@dataclass
class EquivalenceReport:
    m: int
    M: int
    n: int
    units: list[UnitEquivalence]

    @property
    def all_passed(self) -> bool:
        return all(u.passed for u in self.units)

    def failures(self) -> list[UnitEquivalence]:
        return [u for u in self.units if not u.passed]


def preactivation_equivalence_check(
    bnet: BinaryNetwork, x_B: Bitstream, M: int
) -> EquivalenceReport:
    """Verify, unit by unit, that the chunked SC datapath reproduces the
    BNN integer preactivation exactly (bias entering as its sign extension).

    The SC side runs on the packed chunks of all units at once and tallies
    what `xnor_mult` per chunk pair and `apc_sum` over each unit's n + 1
    term streams would; `binary_dot` on the unchunked vectors is the BNN side.
    """
    if x_B.length != bnet.m:
        raise ChunkError(f"input has {x_B.length} bits, network has m={bnet.m}")
    n, N = ChunkSpec(bnet.m, M).n, bnet.N
    w_bits = chunk_bits(np.stack([w.bits for w in bnet.binary_weights]), bnet.m, M)
    x_bits = chunk_bits(x_B.bits, bnet.m, M)
    add_counts(GateCounts(xnor_ops=N * n * M, apc_bit_adds=N * (n + 1) * M * accumulator_width((n + 1) * M)))
    # Pad bits are zero in both, so each XNOR product has M - popcount(w ^ x)
    # ones; the bias stream has M ones for +1 and none for -1.
    mismatches = np.bitwise_count(w_bits ^ x_bits).sum(axis=(1, 2), dtype=np.int64)
    totals = n * M - mismatches + M * (bnet.binary_biases == 1)
    units = []
    for i, total in enumerate(totals.tolist()):
        wx = binary_dot(bnet.binary_weights[i], x_B)
        b = int(bnet.binary_biases[i])
        lhs = 2 * total - (n + 1) * M
        rhs = wx + M * b
        units.append(UnitEquivalence(i, wx + b, total, lhs, rhs, passed=lhs == rhs))
    return EquivalenceReport(m=bnet.m, M=M, n=n, units=units)
