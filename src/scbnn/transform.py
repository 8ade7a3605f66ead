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
SC side and one `binary_dot` call for the BNN side; its report holds the
bundle it checked, the one `convert --to-scnn` writes. A bundle file's
headers and output weights are read by netcore's typed readers, and its
N*n weight lines by one `from_hex_lines` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bitstream import Bitstream, Encoding, _is_length, _packed_fault, to_hex_lines
from .bnn import BinaryNetwork, _require_rows, binary_dot
from .energy import layer_energy
from .netcore import Activation, _require_header, _require_numbers
from .scgates import AccumulationMode, add_counts, apc_ones


class ChunkError(ValueError):
    """Chunk length incompatible with the bit budget."""


def chunk_bits(bits: np.ndarray, m: int, M: int) -> np.ndarray:
    """Chunk packed m-bit vectors, shape (..., ceil(m/8)), into packed
    n = m/M chunks of M bits, shape (..., n, ceil(M/8)), with zero pad bits.
    M must divide m exactly."""
    if not (_is_length(m) and _is_length(M)):
        raise ChunkError(f"need integers m >= 1 and M >= 1, got m={m}, M={M}")
    if m % M != 0:
        raise ChunkError(f"chunk length M={M} does not divide m={m}")
    if fault := _packed_fault(bits, m):
        raise ChunkError(f"vector array {fault}")
    unpacked = np.unpackbits(bits, axis=-1, count=m)
    return np.packbits(unpacked.reshape(*bits.shape[:-1], m // M, M), axis=-1)


def join_bits(chunks: np.ndarray, M: int) -> np.ndarray:
    """Inverse of `chunk_bits`: packed chunks of M bits, shape (..., n,
    ceil(M/8)), joined into packed n*M-bit vectors, shape (..., ceil(n*M/8))."""
    if fault := _packed_fault(chunks, M):
        raise ChunkError(f"chunk array {fault}")
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
        for name, streams, ndim in (("weights", self.weights, 3), ("biases", self.biases, 2)):
            if fault := _packed_fault(streams, self.M, ndim):
                raise ChunkError(f"{name} array {fault}")
        if len(self.biases) != self.N:
            raise ChunkError(f"biases array has {len(self.biases)} rows for {self.N} units")

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


@dataclass
class EquivalenceReport:
    """The bundle the check ran on and, per unit, the BNN preactivation
    w.x + b, the APC total over the n+1 term streams, and whether
    2*total - (n+1)*M == w.x + M*b: three (N,) arrays."""

    bundle: ScnnStreamBundle
    bnn_preactivations: np.ndarray  # int64
    sc_totals: np.ndarray  # int64
    passed: np.ndarray  # bool

    @property
    def all_passed(self) -> bool:
        return bool(self.passed.all())


def preactivation_equivalence_check(bnet: BinaryNetwork, x_B: Bitstream, M: int) -> EquivalenceReport:
    """Check, for every unit at once, that the chunked SC datapath
    reproduces the BNN integer preactivation exactly (bias entering as its
    sign extension), on the bundle `bnn_to_scnn(bnet, M)` that it returns.

    The SC side is one `apc_ones` call on that bundle's arrays and on
    `chunk_bits` of the input; it tallies what `xnor_mult` per chunk pair and
    `apc_sum` over each unit's n + 1 term streams would, from `layer_energy`
    at n and at n + 1 terms. `binary_dot` on the unchunked weight array is
    the BNN side.
    """
    if x_B.length != bnet.m:
        raise ChunkError(f"input has {x_B.length} bits, network has m={bnet.m}")
    bundle = bnn_to_scnn(bnet, M)
    n, N = bundle.n, bundle.N
    terms = layer_energy(n + 1, M, N, AccumulationMode.APC)
    add_counts(replace(terms, xnor_ops=layer_energy(n, M, N, AccumulationMode.APC).xnor_ops))
    totals = apc_ones(bundle.weights, chunk_bits(x_B.bits, bnet.m, M), bundle.biases, M)
    dots, b = binary_dot(bnet.binary_weights, x_B.bits, bnet.m), bnet.binary_biases
    return EquivalenceReport(bundle, dots + b, totals, 2 * totals - (n + 1) * M == dots + M * b)
