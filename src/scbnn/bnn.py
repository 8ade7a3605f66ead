"""Binary neural networks: +/-1 inputs, weights, and biases with real
output weights, plus the stochastic binarization that produces them.

A +/-1 vector of m values is m packed bits, bit 1 meaning +1 (the convention
shared package-wide), so the +/-1 inner product is m - 2*popcount(w XOR x)
and chunking into n = m/M streams of M bits (`transform`) is a reshape. A
`BinaryNetwork`'s weights are one (N, ceil(m/8)) uint8 array and an input is
a bipolar `Bitstream`, so `forward_bnn` is one `binary_dot` call.
`binarize_network` draws every sign of a network in one keyed `encode_many`
call; the scalar `binarize` is its per-element reference. A weight row of
the binary weight file is the bare hex payload of m bits (see `bitstream`);
its other fields are read by netcore's typed readers, except that a bias
must be the JSON integer +1 or -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstream import (
    Bitstream, Encoding, StreamFormatError, StreamKey, StreamMismatchError, encode_many, from_hex_lines, to_hex_lines,
)
from .netcore import (
    Activation, SchemaError, activate, _require_header, _require_list, _require_numbers,
)


def binary_dot(w_bits: np.ndarray, x_bits: np.ndarray, m: int) -> np.ndarray:
    """+/-1 inner products of packed m-bit vectors with zero pad bits, via
    the XNOR-popcount identity; broadcasts over the leading axes, so a
    (N, ceil(m/8)) weight array against one input gives the N products.

    Tallies no gate ops: it is the BNN reference that the equivalence check
    compares the counted SC datapath against.
    """
    nbytes = (m + 7) // 8
    if w_bits.shape[-1] != nbytes or x_bits.shape[-1] != nbytes:
        raise StreamMismatchError(f"binary vectors of {w_bits.shape[-1]} and {x_bits.shape[-1]} bytes, m={m}")
    return m - 2 * np.bitwise_count(w_bits ^ x_bits).sum(axis=-1, dtype=np.int64)


def hard_sigmoid(x):
    """clip((x+1)/2, 0, 1); the binarization probability map."""
    arr = np.asarray(x, dtype=float)
    out = np.clip((arr + 1.0) / 2.0, 0.0, 1.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def binarize(w: float, key: StreamKey) -> int:
    """Draw +1 with probability hard_sigmoid(w), else -1. Pure in `key`."""
    p = hard_sigmoid(w)
    return 1 if key.generator().random() < p else -1


@dataclass
class BinaryNetwork:
    """Hidden layer with +/-1 weights and biases; real output weights."""

    binary_weights: np.ndarray  # uint8 (N, ceil(m/8)), packed bipolar rows, pad bits zero
    m: int
    binary_biases: np.ndarray  # int64 (N,) of +/-1
    output_weights: np.ndarray  # (N,)
    activation: Activation
    name: str = "binary-network"

    def __post_init__(self):
        self.binary_biases = np.asarray(self.binary_biases, dtype=np.int64).reshape(-1)
        self.output_weights = np.asarray(self.output_weights, dtype=float).reshape(-1)
        w = self.binary_weights
        if self.m < 1 or w.dtype != np.uint8 or w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != (self.m + 7) // 8:
            raise ValueError(
                f"binary_weights is {w.dtype} {w.shape}, expected uint8 (N >= 1, {(self.m + 7) // 8}) for m={self.m}"
            )
        N = self.N
        if self.binary_biases.shape != (N,) or self.output_weights.shape != (N,):
            raise ValueError(
                f"inconsistent unit count: {N} weight vectors, "
                f"{self.binary_biases.shape[0]} biases, {self.output_weights.shape[0]} outputs"
            )
        if not np.isin(self.binary_biases, (-1, 1)).all():
            raise ValueError("binary biases must be +1 or -1")
        if not np.isfinite(self.output_weights).all():
            raise ValueError("output_weights contains non-finite values")

    @property
    def N(self) -> int:
        return self.binary_weights.shape[0]


def binarize_network(net, key: StreamKey) -> BinaryNetwork:
    """One-shot stochastic binarization of hidden weights and biases.

    Output weights stay real. Weight (i, j) is ``binarize(w, key.substream(
    "binweights", i, j))`` and bias i ``binarize(b, key.substream("binbias",
    i))``, so the result is deterministic in `key`.
    """
    N, n = net.hidden_weights.shape
    keys = key.substream_keys(
        [("binweights", np.arange(N)[:, None], np.arange(n)[None, :]), ("binbias", np.arange(N), 0)]
    )
    probs = hard_sigmoid(np.concatenate([net.hidden_weights.reshape(-1), net.hidden_biases]))
    bits = encode_many(probs, keys, 1)[:, 0] >> 7  # a one-bit stream is its byte's MSB
    return BinaryNetwork(
        binary_weights=np.packbits(bits[: N * n].reshape(N, n), axis=1),
        m=n,
        binary_biases=2 * bits[N * n :].astype(int) - 1,
        output_weights=net.output_weights.copy(),
        activation=net.activation,
        name=f"{net.name}-binarized",
    )


def forward_bnn(bnet: BinaryNetwork, x_B: Bitstream) -> float:
    """Exact integer preactivations; the output layer is a float sum in unit order."""
    if x_B.length != bnet.m:
        raise StreamMismatchError(f"input has {x_B.length} bits, network expects m={bnet.m}")
    pre = binary_dot(bnet.binary_weights, x_B.bits, bnet.m) + bnet.binary_biases
    out = 0.0
    for alpha, h in zip(bnet.output_weights.tolist(), activate(bnet.activation, pre).tolist()):
        out += alpha * h
    return out


# ---------------------------------------------------------------------------
# Serialization: same weight-file shape with binary: true and hex bit fields.

def binary_network_to_dict(bnet: BinaryNetwork) -> dict:
    return {
        "name": bnet.name,
        "binary": True,
        "m": bnet.m,
        "N": bnet.N,
        "activation": bnet.activation.value,
        "binary_weights": to_hex_lines(bnet.binary_weights, bnet.m, None),
        "binary_biases": [int(b) for b in bnet.binary_biases],
        "output_weights": [float(a) for a in bnet.output_weights],
    }


def _require_rows(doc: dict, key: str, shape: tuple, M: int, enc: Encoding | None, where: str) -> np.ndarray:
    """The hex lines under `key` (see `_require_list`) as packed rows of shape
    (*shape, ceil(M/8)); a bad line is a SchemaError naming it and its fault."""
    try:
        return from_hex_lines(_require_list(doc, key, shape, where), M, enc).reshape(*shape, -1)
    except StreamFormatError as exc:
        index = "][".join(map(str, np.unravel_index(exc.index, shape)))
        raise SchemaError(f"{where}: {key}[{index}]: {exc}") from None


def binary_network_from_dict(doc: dict, where: str = "binary weight file") -> BinaryNetwork:
    if doc.get("binary") is not True:
        raise SchemaError(f"{where}: missing \"binary\": true flag")
    name, activation, m, N = _require_header(doc, where, "m", "N")
    biases = _require_list(doc, "binary_biases", (N,), where)
    if bad := [i for i, b in enumerate(biases) if type(b) is not int or b not in (-1, 1)]:
        raise SchemaError(f"{where}: binary_biases[{bad[0]}] must be the integer +1 or -1")
    return BinaryNetwork(
        binary_weights=_require_rows(doc, "binary_weights", (N,), m, None, where),
        m=m,
        binary_biases=np.array(biases),
        output_weights=_require_numbers(doc, "output_weights", (N,), where),
        activation=activation,
        name=name,
    )

