"""Binary neural networks: +/-1 inputs, weights, and biases with real
output weights, plus the stochastic binarization that produces them.

A +/-1 vector of m values is a bipolar `Bitstream` of length m: stored bit
1 means +1 and bit 0 means -1 (the convention shared package-wide), so the
+/-1 inner product is 2*popcount(XNOR) - m, and chunking the vector into
n = m/M streams of M bits (`transform`) is a reshape of the same bits.
`binarize_network` draws every sign of a network as a one-bit stream in one
keyed `encode_many` call; the scalar `binarize` is its per-element reference.
A weight row of the binary weight file is a JSON string, the hex payload of
a bipolar line of m bits, and is parsed by the stream-bundle line parser.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .bitstream import Bitstream, Encoding, StreamKey, StreamMismatchError, encode_many, zero_pad_bits
from .netcore import (
    Activation, SchemaError, activate, load_json_object, _check_json_type, _require, _require_activation,
    _require_streams,
)


def binary_dot(a: Bitstream, b: Bitstream) -> int:
    """+/-1 inner product via the XNOR-popcount identity.

    Tallies no gate ops: it is the BNN reference that the equivalence check
    compares the counted SC datapath against.
    """
    if a.length != b.length:
        raise StreamMismatchError(
            f"binary vectors disagree in length: {a.length} vs {b.length}"
        )
    agreements = zero_pad_bits(np.bitwise_not(a.bits ^ b.bits), a.length)
    return 2 * int(np.bitwise_count(agreements).sum()) - a.length


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

    binary_weights: list[Bitstream]  # bipolar, one per unit
    binary_biases: np.ndarray  # (N,) of +/-1
    output_weights: np.ndarray  # (N,)
    activation: Activation
    name: str = "binary-network"

    def __post_init__(self):
        if not self.binary_weights:
            raise ValueError("binary network needs at least one hidden unit")
        self.binary_biases = np.asarray(self.binary_biases, dtype=np.int8).reshape(-1)
        self.output_weights = np.asarray(self.output_weights, dtype=float).reshape(-1)
        m = self.binary_weights[0].length
        for idx, w in enumerate(self.binary_weights):
            if w.encoding is not Encoding.BIPOLAR:
                raise ValueError(f"binary_weights[{idx}] is {w.encoding.value}, expected bipolar")
            if w.length != m:
                raise ValueError(
                    f"binary_weights[{idx}] has length {w.length}, expected {m}"
                )
        N = len(self.binary_weights)
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
    def m(self) -> int:
        return self.binary_weights[0].length

    @property
    def N(self) -> int:
        return len(self.binary_weights)


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
    rows = np.packbits(bits[: N * n].reshape(N, n), axis=1)
    return BinaryNetwork(
        binary_weights=[Bitstream(row, n, Encoding.BIPOLAR) for row in rows],
        binary_biases=2 * bits[N * n :].astype(int) - 1,
        output_weights=net.output_weights.copy(),
        activation=net.activation,
        name=f"{net.name}-binarized",
    )


def forward_bnn(bnet: BinaryNetwork, x_B: Bitstream) -> float:
    """Exact integer preactivations, exact activation and output layer."""
    if x_B.length != bnet.m:
        raise StreamMismatchError(
            f"input has {x_B.length} bits, network expects m={bnet.m}"
        )
    out = 0.0
    for i, w in enumerate(bnet.binary_weights):
        pre = binary_dot(w, x_B) + int(bnet.binary_biases[i])
        out += float(bnet.output_weights[i]) * activate(bnet.activation, float(pre))
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
        "binary_weights": [w.bits.tobytes().hex() for w in bnet.binary_weights],
        "binary_biases": [int(b) for b in bnet.binary_biases],
        "output_weights": [float(a) for a in bnet.output_weights],
    }


def save_binary_network(bnet: BinaryNetwork, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(binary_network_to_dict(bnet), fh, indent=2, sort_keys=True)
        fh.write("\n")


def binary_network_from_dict(doc: dict, where: str = "binary weight file") -> BinaryNetwork:
    if doc.get("binary") is not True:
        raise SchemaError(f"{where}: missing \"binary\": true flag")
    name = _require(doc, "name", str, where)
    m = _require(doc, "m", int, where)
    N = _require(doc, "N", int, where)
    if m < 1 or N < 1:
        raise SchemaError(f"{where}: m and N must be >= 1, got m={m}, N={N}")
    activation = _require_activation(doc, where)
    weight_rows = _require(doc, "binary_weights", list, where)
    if len(weight_rows) != N:
        raise SchemaError(f"{where}: binary_weights has {len(weight_rows)} rows, expected N={N}")
    for i, row in enumerate(weight_rows):
        _check_json_type(row, str, f"{where}: binary_weights[{i}]")
    # A row is the hex payload of a bipolar hex line, so it passes the same
    # hex, size and pad-bit checks.
    rows = _require_streams([f"M:{m};enc:b;{row}" for row in weight_rows], m, f"{where}: binary_weights")
    biases = _require(doc, "binary_biases", list, where)
    outputs = _require(doc, "output_weights", list, where)
    if len(biases) != N or len(outputs) != N:
        raise SchemaError(f"{where}: biases/outputs must each have N={N} entries")
    for i, b in enumerate(biases):
        if type(b) is not int or b not in (-1, 1):
            raise SchemaError(f"{where}: binary_biases[{i}] must be the integer +1 or -1")
    try:
        return BinaryNetwork(
            binary_weights=[Bitstream(row, m, Encoding.BIPOLAR) for row in rows],
            binary_biases=np.array(biases, dtype=int),
            output_weights=np.array(outputs, dtype=float),
            activation=activation,
            name=name,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_binary_network(path: str | os.PathLike) -> BinaryNetwork:
    return binary_network_from_dict(load_json_object(path, "weight file"), where=str(path))
