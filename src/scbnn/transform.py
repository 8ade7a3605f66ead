"""BNN <-> SCNN equivalence: chunk m binary values into n = m/M bipolar
streams of length M and back, bit-exactly, and the stream-bundle file.

A +/-1 vector is m packed bits, so the bridge is two reshapes of them:
`chunk_bits` cuts packed m-bit vectors into n rows of M bits, in storage
order (stream j takes bits jM .. (j+1)M - 1), and `join_bits` undoes it.
`bnn_to_scnn` chunks a `BinaryNetwork`'s whole weight array at once and
sign-extends each bias bit to M clocks (a constant +/-1 stream), so the APC
total over the n+1 term streams reproduces the BNN integer preactivation
with the bias weighted by M:

    2*total - (n+1)*M == w.x + M*b

A `ScnnStreamBundle` holds what a bundle file holds, every stream as a
packed uint8 array, so the equivalence check is one `apc_ones` call for the
SC side and one `binary_dot` call for the BNN side. A bundle file's headers
and output weights are read by netcore's typed readers, and its N*n weight
lines by one `from_hex_lines` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import Bitstream, Encoding, to_hex_lines
from .bnn import BinaryNetwork, _require_rows, binary_dot
from .netcore import Activation, _require_header, _require_numbers
from .scgates import GateCounts, accumulator_width, add_counts, apc_ones


class ChunkError(ValueError):
    """Chunk length incompatible with the bit budget."""


def chunk_bits(bits: np.ndarray, m: int, M: int) -> np.ndarray:
    """Chunk packed m-bit vectors, shape (..., ceil(m/8)), into packed
    n = m/M chunks of M bits, shape (..., n, ceil(M/8)), with zero pad bits.
    M must divide m exactly."""
    if m < 1 or M < 1:
        raise ChunkError(f"need m >= 1 and M >= 1, got m={m}, M={M}")
    if m % M != 0:
        raise ChunkError(f"chunk length M={M} does not divide m={m}")
    unpacked = np.unpackbits(bits, axis=-1, count=m)
    return np.packbits(unpacked.reshape(*bits.shape[:-1], m // M, M), axis=-1)


def join_bits(chunks: np.ndarray, M: int) -> np.ndarray:
    """Inverse of `chunk_bits`: packed chunks of M bits, shape (..., n,
    ceil(M/8)), joined into packed n*M-bit vectors, shape (..., ceil(n*M/8))."""
    bits = np.unpackbits(chunks, axis=-1, count=M)
    return np.packbits(bits.reshape(*chunks.shape[:-2], -1), axis=-1)


@dataclass
class ScnnStreamBundle:
    """SCNN-form view of a BNN as packed bipolar streams of M bits, pad bits
    zero: every unit's n weight streams and its sign-extended bias stream."""

    M: int
    weights: np.ndarray  # uint8 (N, n, ceil(M/8))
    biases: np.ndarray  # uint8 (N, ceil(M/8))
    output_weights: np.ndarray
    activation: Activation
    name: str = "scnn-streams"

    def __post_init__(self):
        nbytes = (self.M + 7) // 8
        if self.M < 1 or self.weights.ndim != 3 or self.weights.shape[2] != nbytes:
            raise ChunkError(f"weights have shape {self.weights.shape}, expected (N, n, {nbytes}) for M={self.M}")
        if self.biases.shape != (self.N, nbytes):
            raise ChunkError(f"biases have shape {self.biases.shape}, expected {(self.N, nbytes)} for M={self.M}")

    @property
    def N(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    @property
    def m(self) -> int:
        return self.n * self.M


def bnn_to_scnn(bnet: BinaryNetwork, M: int) -> ScnnStreamBundle:
    """Chunk every unit's weight bits into M-bit streams; sign-extend every bias."""
    ones = Bitstream.constant(1, M, Encoding.BIPOLAR).bits
    return ScnnStreamBundle(
        M=M,
        weights=chunk_bits(bnet.binary_weights, bnet.m, M),
        biases=(bnet.binary_biases == 1)[:, None] * ones,
        output_weights=bnet.output_weights.copy(),
        activation=bnet.activation,
        name=f"{bnet.name}-M{M}",
    )


def scnn_to_bnn(bundle: ScnnStreamBundle) -> BinaryNetwork:
    """Inverse of `bnn_to_scnn` up to the name: join each unit's chunks in order.

    Bias streams must be constant (a sign extension); anything else has no
    single-bit preimage.
    """
    M = bundle.M
    ones = np.bitwise_count(bundle.biases).sum(axis=1, dtype=np.int64)
    bad = np.flatnonzero((ones != 0) & (ones != M))
    if bad.size:
        raise ChunkError(f"bias stream {bad[0]} is not a sign extension ({ones[bad[0]]}/{M} ones)")
    return BinaryNetwork(
        binary_weights=join_bits(bundle.weights, M),
        m=bundle.m,
        binary_biases=np.where(ones == M, 1, -1),
        output_weights=bundle.output_weights.copy(),
        activation=bundle.activation,
        name=bundle.name,
    )


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
        "weight_streams": [to_hex_lines(unit, bundle.M, Encoding.BIPOLAR) for unit in bundle.weights],
        "bias_streams": to_hex_lines(bundle.biases, bundle.M, Encoding.BIPOLAR),
    }


def bundle_from_dict(doc: dict, where: str = "stream bundle") -> ScnnStreamBundle:
    """Parse a stream-bundle document, checking its M, n and N headers
    against the streams and lists it holds."""
    name, activation, M, n, N = _require_header(doc, where, "M", "n", "N")
    return ScnnStreamBundle(
        M=M,
        weights=_require_rows(doc, "weight_streams", (N, n), M, Encoding.BIPOLAR, where),
        biases=_require_rows(doc, "bias_streams", (N,), M, Encoding.BIPOLAR, where),
        output_weights=_require_numbers(doc, "output_weights", (N,), where),
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

    The SC side runs `apc_ones` on the arrays of `bnn_to_scnn(bnet, M)`, the
    ones a bundle file is written from, and on `chunk_bits` of the input. It
    tallies what `xnor_mult` per chunk pair and `apc_sum` over each unit's
    n + 1 term streams would; `binary_dot` on the unchunked weight array is
    the BNN side.
    """
    if x_B.length != bnet.m:
        raise ChunkError(f"input has {x_B.length} bits, network has m={bnet.m}")
    bundle = bnn_to_scnn(bnet, M)
    n, N = bundle.n, bundle.N
    add_counts(GateCounts(xnor_ops=N * n * M, apc_bit_adds=N * (n + 1) * M * accumulator_width((n + 1) * M)))
    totals = apc_ones(bundle.weights, chunk_bits(x_B.bits, bnet.m, M), bundle.biases, M)
    dots = binary_dot(bnet.binary_weights, x_B.bits, bnet.m)
    units = []
    for i, (total, wx, b) in enumerate(zip(totals.tolist(), dots.tolist(), bnet.binary_biases.tolist())):
        lhs = 2 * total - (n + 1) * M
        rhs = wx + M * b
        units.append(UnitEquivalence(i, wx + b, total, lhs, rhs, passed=lhs == rhs))
    return EquivalenceReport(m=bnet.m, M=M, n=n, units=units)
