"""Stochastic number representation: packed fixed-length bitstreams.

A stochastic number is the fraction of ones in an M-bit stream. Unipolar
streams carry values in [0, 1] with P(bit=1) = x; bipolar streams carry
[-1, 1] with P(bit=1) = (x+1)/2. Bit generation is a pure function of a
StreamKey, so every stream is reproducible and independently addressable.

Philox4x64-10 is counter-based: a stream is a pure function of its 128-bit
key, the counter starting at zero. `encode_many` packs S streams into one
(S, ceil(M/8)) array. Calls of at least 512 streams of at most 24 bits
compute the ceil(M/4) Philox blocks of all keys at once as uint64 array
rounds; every other call re-keys, once per stream, a C Philox built for
that call. A sweep reaches the array path through `forward_scnn_grid`,
which draws all 17 grid rows of the README's N = 32 net (1632 streams) in
one call. Milliseconds per call, array / re-keyed (median of 101 calls,
one core of a 2 vCPU Xeon, numpy 2.4.6; 13.9 / 98.6 at S = 65,552, M = 1):

    S       M = 1         M = 16        M = 24        M = 32        M = 64
    96      0.29 / 0.14   0.36 / 0.15   0.40 / 0.16   0.41 / 0.16   0.52 / 0.18
    256     0.34 / 0.33   0.46 / 0.37   0.53 / 0.38   0.59 / 0.39   0.86 / 0.45
    512     0.40 / 0.68   0.62 / 0.75   0.75 / 0.77   1.05 / 0.78   1.90 / 0.88
    1632    0.55 / 2.16   1.49 / 2.38   2.19 / 2.43   2.91 / 2.48   6.12 / 2.82

Either way bit t of a stream is `Generator.random(M)[t] < p` under its key,
so the bytes and `GENERATOR_FAMILY` are those of a fresh Philox per stream.
`random()` is (raw >> 11) * 2^-53, so that bit is also
``raw < ceil(p * 2^53) << 11`` for the raw 64-bit word. When one stream
fills a block alone (more than _DRAW_BLOCK / 2 clocks), the re-keyed path
takes its bits that way, with no conversion to double; shorter streams
share a block of `Generator.random` draws.
`fold_seeds` folds a seed-free `key_layout`, which a caller may cache,
with one seed (`StreamKey.substream_keys`) or a whole array of them, such
as the grid-row seeds `StreamKey.derive_seeds` derives, in one vectorized
pass.

`encode_blocks` yields the same streams one block of `_DRAW_BLOCK` (2^16)
clocks at a time, so a caller that reduces each block as it arrives holds
O(S * _DRAW_BLOCK / 8) bytes at any M; `encode_many` is its blocks side by
side. The re-keyed path resumes a stream at clock lo with the counter at
lo/4 and an empty buffer, the state a fresh Philox reaches after lo draws.
The array path only takes M <= 24, one block. No draw state outlives a
call, so threads and interleaved iterators share none.

A packed M-bit row, for an integer M >= 1, is ceil(M/8) uint8 bytes with
zero pad bits, which make every popcount over it exact; `_packed_fault` is
that rule, and each packed type and `from_hex_lines` refuse rows that break
it. Files hold packed rows as hex text: a stream-bundle line or a binary
weight row. `to_hex_lines` and `from_hex_lines` write and read a whole list
of them at once, under one acceptance rule; `to_hex_line` and
`from_hex_line` are their one-row cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

#: Generator family recorded in output metadata. Substream keys are folded
#: into a 128-bit Philox key with a splitmix64 chain; the counter dimension
#: of Philox indexes individual bits.
GENERATOR_FAMILY = "philox4x64-keyfold"

_MASK64 = (1 << 64) - 1
_ROLE_SALT = 0xA076_1D64_78BD_642F
_DERIVE_SALT = 0xE703_7ED1_A0B4_28DB
_KEY2_SALT = 0xD6E8_FEB8_6659_FD93


class EncodingRangeError(ValueError):
    """A raw value falls outside the range an encoding or scale admits."""


class StreamMismatchError(ValueError):
    """Gate or network inputs disagree in length, encoding, or dimension."""


class StreamFormatError(ValueError):
    """A serialized bitstream line is malformed; `index` is its position in
    the lines given to `from_hex_lines`."""

    index: int | None = None


class Encoding(enum.Enum):
    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"

    @property
    def value_range(self) -> tuple[float, float]:
        return (0.0, 1.0) if self is Encoding.UNIPOLAR else (-1.0, 1.0)

    @property
    def tag(self) -> str:
        return "u" if self is Encoding.UNIPOLAR else "b"

    @classmethod
    def from_tag(cls, tag: str) -> "Encoding":
        if tag == "u":
            return cls.UNIPOLAR
        if tag == "b":
            return cls.BIPOLAR
        raise StreamFormatError(f"unknown encoding tag {tag!r} (expected 'u' or 'b')")


def _splitmix64(z: int) -> int:
    z = (z + 0x9E37_79B9_7F4A_7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB) & _MASK64
    return z ^ (z >> 31)


def _fold(state, value):
    return _splitmix64(state ^ value)


# 0-d uint64 arrays, which ufuncs take faster than np.uint64 scalars.
_SPLITMIX_U64 = [np.array(c, dtype=np.uint64) for c in (0x9E37_79B9_7F4A_7C15, 30, 0xBF58_476D_1CE4_E5B9, 27,
                                                        0x94D0_49BB_1331_11EB, 31)]
_KEY2_SALT_U64 = np.array(_KEY2_SALT, dtype=np.uint64)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """`_splitmix64` of every element of a fresh uint64 array, in place:
    uint64 arithmetic wraps, so uint64 constants need no mask."""
    add, s1, m1, s2, m2, s3 = _SPLITMIX_U64
    z += add
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


@cache
def _role_hash(role: str) -> int:
    h = _ROLE_SALT
    for byte in role.encode("utf-8"):
        h = _fold(h, byte)
    return h


def _words(name: str, value) -> np.ndarray:
    """`value`, an integer or an array of them, as uint64 words. A bool, a
    float or a value outside [0, 2^64) is refused, so a fold needs no mask."""
    words = np.asarray(value)
    if words.dtype.kind not in "iu" or (words < 0).any():
        raise ValueError(f"{name} {value!r} is not an integer in the 64-bit range [0, 2^64)")
    return words.astype(np.uint64)


def key_layout(groups) -> np.ndarray:
    """The seed-free half of `StreamKey.substream_keys`: the (3, S) uint64
    columns (role hash, i, j) of a sequence of (role, i, j) groups. Index
    arrays (or ints) i and j broadcast together, and each broadcast element
    in row-major order is one column, groups in order."""
    pairs = [np.broadcast_arrays(_words("i", i), _words("j", j)) for _, i, j in groups]
    layout, stop = np.empty((3, sum(i.size for i, _ in pairs)), dtype=np.uint64), 0
    for (role, _, _), (i, j) in zip(groups, pairs):
        start, stop = stop, stop + i.size
        for row, column in enumerate((_role_hash(role), i, j)):  # in place: a stacked copy raised peak RSS
            layout[row, start:stop].reshape(i.shape)[...] = column
    return layout


@dataclass(frozen=True)
class StreamKey:
    """Deterministic substream identity: master seed plus (role, i, j), each
    a 64-bit word in [0, 2^64), as is every index `derive` folds. Distinct
    identities give independent bit sequences unless their Philox keys meet:
    k1 is a function of k0, so keys span 2^64 values, and S keys collide with
    probability about S^2/2^65. The same identity reproduces its stream.
    """

    seed: int
    role: str = "master"
    i: int = 0
    j: int = 0

    def __post_init__(self):
        for name in ("seed", "i", "j"):
            object.__setattr__(self, name, int(_words(name, getattr(self, name))))

    def _master_seed(self) -> int:
        """The seed of a master key (role "master", i = j = 0); a key that names a stream is refused."""
        if (self.role, self.i, self.j) != ("master", 0, 0):
            raise ValueError(f"{self} names a stream, not a master key")
        return self.seed

    def substream(self, role: str, i: int = 0, j: int = 0) -> "StreamKey":
        """Key for a named substream under the same master seed."""
        return StreamKey(self._master_seed(), role, i, j)

    def derive(self, *indices: int) -> "StreamKey":
        """Fold indices into a fresh master key (for trials, grid points...)."""
        indices = [int(_words("indices", idx)) for idx in indices]
        h = _fold(self.seed, _DERIVE_SALT)
        h = _fold(h, _role_hash(self.role))
        h = _fold(h, self.i)
        h = _fold(h, self.j)
        for idx in indices:
            h = _fold(h, idx)
        return StreamKey(h)

    def derive_seeds(self, *indices: int, rows: int) -> np.ndarray:
        """The seeds of ``derive(*indices, p)`` for p in range(rows), a
        uint64 array, in one vectorized fold: the fold of p comes last."""
        return _splitmix64_array(np.arange(rows, dtype=np.uint64) ^ np.uint64(self.derive(*indices).seed))

    def _philox_key(self) -> np.ndarray:
        k0 = _fold(self.seed, _role_hash(self.role))
        k0 = _fold(_fold(k0, self.i), self.j)
        k1 = _fold(k0, _KEY2_SALT)
        return np.array([k0, k1], dtype=np.uint64)

    def substream_keys(self, groups) -> np.ndarray:
        """The (S, 2) Philox keys of the `key_layout` of `groups` under this
        seed; the row for (role, i, j) is ``self.substream(role, i, j)._philox_key()``."""
        return fold_seeds(key_layout(groups), self._master_seed())

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._philox_key()))


def fold_seeds(layout: np.ndarray, seeds) -> np.ndarray:
    """The Philox keys of the (3, S) `key_layout` under each of the uint64
    `seeds`, shape seeds.shape + (S, 2), in four vectorized splitmix64
    folds; `layout` is only read. The keys under seed s are those of
    ``StreamKey(s).substream_keys(groups)``."""
    seeds = np.asarray(seeds, dtype=np.uint64)[..., None]
    k0 = _splitmix64_array(_splitmix64_array(layout[0] ^ seeds) ^ layout[1])
    k0 = _splitmix64_array(k0 ^ layout[2])
    return np.stack([k0, _splitmix64_array(k0 ^ _KEY2_SALT_U64)], axis=-1)


# ---------------------------------------------------------------------------
# Packed bit storage (big-endian bit order, pad bits forced to zero)

def zero_pad_bits(packed: np.ndarray, length: int) -> np.ndarray:
    """Force the pad bits after `length` in the last byte (of each row, for
    a stack of packed streams) to zero."""
    out = packed.copy()
    if out.size:
        out[..., -1] &= ~np.uint8((1 << (-length % 8)) - 1)
    return out


def _is_length(length) -> bool:
    """An integer >= 1: a numpy integer is one, a bool or a float is not."""
    return isinstance(length, (int, np.integer)) and not isinstance(length, bool) and length >= 1


def _packed_fault(rows: np.ndarray, length: int, ndim: int | None = None) -> str | None:
    """Why `rows` is not a stack of packed `length`-bit rows (of `ndim` axes,
    if given), or None if it is one: an integer length >= 1, uint8,
    ceil(length/8) bytes on the last axis and zero pad bits, which make
    every popcount over them exact."""
    if not _is_length(length):
        return f"has rows of length {length}, expected an integer >= 1"
    if not isinstance(rows, np.ndarray):
        return f"is a {type(rows).__name__}, expected a uint8 array of ndim {ndim or '>= 1'}"
    if rows.dtype != np.uint8 or rows.ndim < 1 or ndim not in (None, rows.ndim):
        return f"is {rows.dtype} of shape {rows.shape}, expected a uint8 array of ndim {ndim or '>= 1'}"
    if rows.shape[-1] != (length + 7) // 8:
        return f"has {rows.shape[-1]} bytes, expected {(length + 7) // 8} for length {length}"
    if (rows[..., -1] & ((1 << (-length % 8)) - 1)).any():
        return f"has nonzero pad bits after length {length}"
    return None


@dataclass(frozen=True, eq=False, slots=True)
class Bitstream:
    """Immutable M-bit stream with an encoding tag.

    `bits` is ceil(M/8) packed uint8 bytes with zero pad bits, so popcounts
    over them are exact; construction refuses any other array.
    """

    bits: np.ndarray
    length: int
    encoding: Encoding

    def __post_init__(self):
        if fault := _packed_fault(self.bits, self.length, 1):
            raise ValueError(f"packed storage {fault}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        return (
            self.length == other.length
            and self.encoding is other.encoding
            and np.array_equal(self.bits, other.bits)
        )

    def bit_array(self) -> np.ndarray:
        return np.unpackbits(self.bits, count=self.length)

    @classmethod
    def from_bits(cls, bits, encoding: Encoding) -> "Bitstream":
        """Build from a '0101...' string or a 0/1 sequence."""
        if isinstance(bits, str):
            bits = [int(c) for c in bits]
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
            raise ValueError("bits must be a flat sequence of 0s and 1s")
        return cls(np.packbits(arr), int(arr.size), encoding)

    @classmethod
    def from_signs(cls, signs) -> "Bitstream":
        """Bipolar stream of a flat +1/-1 sequence (+1 is bit 1)."""
        arr = np.asarray(signs, dtype=int)
        if arr.ndim != 1 or not np.isin(arr, (-1, 1)).all():
            raise ValueError("signs must be a flat sequence of +1/-1")
        return cls(np.packbits(arr == 1), int(arr.size), Encoding.BIPOLAR)

    def signs(self) -> np.ndarray:
        """The bits as +1/-1 values (bit 1 is +1)."""
        return self.bit_array().astype(np.int8) * 2 - 1

    @classmethod
    def constant(cls, bit: int, length: int, encoding: Encoding) -> "Bitstream":
        if bit not in (0, 1):
            raise ValueError(f"constant bit must be 0 or 1, got {bit}")
        if not _is_length(length):
            raise ValueError(f"stream length must be an integer >= 1, got {length!r}")
        return cls.from_bits(np.full(length, bit, dtype=np.uint8), encoding)


#: Clocks per block of `encode_blocks`, and draws held at once by the
#: re-keyed path and by the MUX selection (`scgates._mux_select`): short
#: streams share a block row-wise, longer ones are drawn and reduced one
#: block of clocks at a time. A multiple of 8, so each block fills whole
#: bytes of a packed row, and of 4, so it starts on a Philox counter.
_DRAW_BLOCK = 1 << 16
#: encode_many takes the array path for calls of at least _ARRAY_MIN_S
#: streams of at most _ARRAY_MAX_M bits (measured table: module docstring),
#: computing _ARRAY_BLOCKS Philox blocks at a time.
_ARRAY_MAX_M = 24
_ARRAY_MIN_S = 512
_ARRAY_BLOCKS = 1 << 13
_MASK32 = 0xFFFF_FFFF
_PHILOX_M = (0xD2E7_470E_E14C_6C93, 0xCA5A_8263_9512_1157)
_PHILOX_W = (0x9E37_79B9_7F4A_7C15, 0xBB67_AE85_84CA_A73B)


def encode_blocks(probs, keys, M: int) -> Iterator[np.ndarray]:
    """The streams of `encode_many`, one clock block at a time: for lo = 0,
    _DRAW_BLOCK, 2 * _DRAW_BLOCK, ... yields a uint8 array of shape
    (S, ceil(w/8)), w = min(_DRAW_BLOCK, M - lo), whose row s holds clocks
    [lo, lo + w) of stream s. Every block but the last fills whole bytes,
    so the blocks side by side are the rows of `encode_many`; only one
    block is held at a time.
    """
    if not _is_length(M):
        raise ValueError(f"stream length M must be an integer >= 1, got {M!r}")
    probs = np.asarray(probs, dtype=float).reshape(-1)
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.shape != (probs.size, 2):
        raise ValueError(f"need one (k0, k1) key per probability, got keys of shape {keys.shape}")
    outside = ~((probs >= 0.0) & (probs <= 1.0))
    if outside.any():
        raise EncodingRangeError(f"probability {float(probs[outside][0])!r} outside [0, 1]")
    return _blocks(probs, keys, M)


def _blocks(probs: np.ndarray, keys: np.ndarray, M: int) -> Iterator[np.ndarray]:
    # A generator apart from `encode_blocks`, so its arguments are checked
    # when it is called, not when the first block is asked for.
    array = M <= _ARRAY_MAX_M and probs.size >= _ARRAY_MIN_S
    for lo in range(0, M, _DRAW_BLOCK):
        width = min(_DRAW_BLOCK, M - lo)
        block = np.empty((probs.size, (width + 7) // 8), dtype=np.uint8)
        if array:
            _encode_array(probs, keys, M, block)
        elif probs.size:
            _encode_rekeyed(probs, keys, lo, width, block)
        yield block


def encode_many(probs, keys, M: int) -> np.ndarray:
    """Draw S packed M-bit streams: row s has P(bit=1) = probs[s] under the
    Philox key keys[s] (see `StreamKey.substream_keys`).

    Returns a uint8 array of shape (S, ceil(M/8)) with zero pad bits: the
    blocks of `encode_blocks` side by side. Row s is bit-identical to the
    stream of ``Generator(Philox(key=keys[s])).random(M) < probs[s]``,
    whichever of the two paths draws it.
    """
    blocks = encode_blocks(probs, keys, M)
    out = np.empty((np.size(probs), (M + 7) // 8), dtype=np.uint8)
    for lo, block in zip(range(0, M, _DRAW_BLOCK), blocks):
        out[:, lo // 8 : lo // 8 + block.shape[1]] = block
    return out


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m (uint64 array
    a, constant m), the high word summed from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    lh, hl = a_lo * (m >> 32), a_hi * (m & _MASK32)
    mid = ((a_lo * (m & _MASK32)) >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * (m >> 32) + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m


def _philox_raw(keys: np.ndarray, blocks: int) -> np.ndarray:
    """``Philox(key=k).random_raw(4 * blocks)`` for every row k of `keys`, as
    uint64 array rounds of Philox4x64-10: block b of a fresh generator is
    the counter (b + 1, 0, 0, 0), and the key takes a Weyl step between
    rounds. Returns shape (len(keys), 4 * blocks)."""
    k0, k1 = np.repeat(keys[:, 0], blocks), np.repeat(keys[:, 1], blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1).reshape(len(keys), 4 * blocks)


def _encode_array(probs, keys, M: int, out: np.ndarray) -> None:
    """Fill `out` from numpy Philox blocks. `Generator.random` is
    (raw >> 11) * 2^-53, so its bit is (raw >> 11) < ceil(p * 2^53)."""
    blocks = (M + 3) // 4
    rows = _ARRAY_BLOCKS // blocks
    for start in range(0, probs.size, rows):
        stop = min(probs.size, start + rows)
        raw = _philox_raw(keys[start:stop], blocks)[:, :M]
        below = np.ceil(probs[start:stop] * 2.0**53).astype(np.uint64)
        out[start:stop] = np.packbits((raw >> 11) < below[:, None], axis=1)


def _encode_rekeyed(probs, keys, lo: int, width: int, out: np.ndarray) -> None:
    """Fill `out` with clocks [lo, lo + width) of every stream from a C
    Philox built for this call (about 12 us), given each stream's whole
    state: its key, the counter at lo/4 and an empty buffer, the state a
    fresh Philox is in after lo draws (lo is a multiple of 4). So a stream
    resumes at clock lo exactly, and no draw state outlives the call."""
    bit_gen = np.random.Philox(0)
    gen, state = np.random.Generator(bit_gen), bit_gen.state
    # The state setter reads the dict element by element, which is faster
    # from Python lists than from the uint64 arrays the getter returns.
    state["buffer"] = state["buffer"].tolist()
    state["state"]["counter"] = [lo // 4, 0, 0, 0]
    # Keys become Python lists a stream or a block of rows at a time: about
    # 150 bytes a stream, which for a whole call would outgrow its block.
    if 2 * width > _DRAW_BLOCK:
        # One stream fills the block: raw < ceil(p * 2^53) << 11 is
        # (raw >> 11) < ceil(p * 2^53), so the words need no conversion and
        # no shift. For p == 1.0 the threshold 2^64 wraps to 0.
        below = np.ceil(probs * 2.0**53).astype(np.uint64) << np.uint64(11)
        for r, p in enumerate(probs.tolist()):
            if p == 1.0:
                out[r] = np.packbits(np.ones(width, dtype=bool))
                continue
            state["state"]["key"] = keys[r].tolist()
            bit_gen.state = state
            out[r] = np.packbits(bit_gen.random_raw(width) < below[r])
        return
    rows = min(_DRAW_BLOCK // width, probs.size)
    draws = np.empty((rows, width))
    for start in range(0, probs.size, rows):
        stop = min(probs.size, start + rows)
        block = draws[: stop - start]
        for row, key in zip(block, keys[start:stop].tolist()):
            state["state"]["key"] = key
            bit_gen.state = state
            gen.random(out=row)
        out[start:stop] = np.packbits(block < probs[start:stop, None], axis=1)


def sng_encode(x: float, M: int, enc: Encoding, key: StreamKey) -> Bitstream:
    """Encode a real value as M independent Bernoulli bits under `key`.

    P(bit=1) is x for unipolar and (x+1)/2 for bipolar. Boundary values
    give deterministic all-ones / all-zeros streams.
    """
    lo, hi = enc.value_range
    if not (lo <= x <= hi):
        raise EncodingRangeError(
            f"value {x!r} outside {enc.value} range [{lo}, {hi}]"
        )
    p = x if enc is Encoding.UNIPOLAR else (x + 1.0) / 2.0
    return Bitstream(encode_many([p], key._philox_key()[None], M)[0], M, enc)


def popcount(s: Bitstream) -> int:
    """Exact count of 1-bits."""
    return int(np.bitwise_count(s.bits).sum())


def decode(s: Bitstream) -> float:
    """Value of a stream: ones/M (unipolar) or (2*ones - M)/M (bipolar).

    Computed as a single exact integer quotient, so e.g. a bipolar stream
    with 7 ones out of 10 decodes to exactly 0.4.
    """
    ones = popcount(s)
    if s.encoding is Encoding.UNIPOLAR:
        return ones / s.length
    return (2 * ones - s.length) / s.length


# ---------------------------------------------------------------------------
# Hex lines: M:<len>;enc:<u|b>;<hex>, or the bare <hex> payload of a row
# whose M and encoding the file states elsewhere (enc None). One rule for
# both: whitespace around a line is ignored, the hex digits may be either
# case, and the payload is ceil(M/8) bytes with zero pad bits.

def to_hex_lines(rows: np.ndarray, M: int, enc: Encoding | None) -> list[str]:
    """The hex line of each packed M-bit row of `rows`, shape (S, ceil(M/8))."""
    prefix = "" if enc is None else f"M:{M};enc:{enc.tag};"
    hexed = rows.tobytes().hex(" ", rows.shape[-1])
    return (prefix + hexed.replace(" ", " " + prefix)).split(" ") if hexed else []


def to_hex_line(s: Bitstream) -> str:
    return to_hex_lines(s.bits[None], s.length, s.encoding)[0]


def _split_line(line) -> tuple[int, Encoding, str]:
    """Length, encoding and payload of a hex line, its header checked."""
    parts = line.strip().split(";") if isinstance(line, str) else []
    if len(parts) != 3 or not parts[0].startswith("M:") or not parts[1].startswith("enc:"):
        raise StreamFormatError(f"malformed bitstream line {line!r}")
    digits = parts[0][2:]
    # Plain decimal: int() also takes "+4", "1_0", "04", "٤" and fails past 4300 digits.
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0" or len(digits) > 19:
        raise StreamFormatError(f"bad length field in {line!r}")
    return int(digits), Encoding.from_tag(parts[1][4:]), parts[2]


def from_hex_lines(lines: list, M: int, enc: Encoding | None) -> np.ndarray:
    """Packed rows, shape (len(lines), ceil(M/8)), of hex lines of M-bit
    `enc` streams, all parsed at once. If any line breaks the rule or has
    another M or encoding, the StreamFormatError gives the reason for the
    first such line and its position as `index`."""
    nbytes, prefix = (M + 7) // 8, "" if enc is None else f"M:{M};enc:{enc.tag};"
    size, head = len(prefix) + 2 * nbytes, np.frombuffer(prefix.encode(), dtype=np.uint8)
    # Fails on a non-string, a non-ASCII or non-hex character, or whitespace
    # inside a payload (fromhex skips it, which leaves too few bytes).
    try:
        stripped = list(map(str.strip, lines))
        if set(map(len, stripped)) <= {size}:
            text = np.frombuffer("".join(stripped).encode("ascii"), dtype=np.uint8).reshape(-1, size)
            if (text[:, : head.size] == head).all():
                raw = bytearray.fromhex(text[:, head.size :].tobytes().decode())  # a writable buffer
                rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(stripped), nbytes)
                if _packed_fault(rows, M) is None:
                    return rows
    except (TypeError, ValueError):
        pass
    for index, line in enumerate(lines):
        try:
            payload = line.strip() if isinstance(line, str) else None
            if enc is not None:
                length, tag, payload = _split_line(line)
                if (length, tag) != (M, enc):
                    raise StreamFormatError(f"stream is {length}-bit {tag.value}, expected {M}-bit {enc.value}")
            try:
                raw = bytes.fromhex(payload)
            except (TypeError, ValueError):
                raw = None
            if raw is None or len(payload) != 2 * len(raw):  # fromhex skips whitespace
                raise StreamFormatError(f"bad hex payload in {line!r}")
            if fault := _packed_fault(np.frombuffer(raw, dtype=np.uint8), M):
                raise StreamFormatError(f"payload {fault} in {line!r}")
        except StreamFormatError as exc:
            exc.index = index
            raise
    raise AssertionError("from_hex_lines: the batch and the per-line checks disagree")


def from_hex_line(line: str) -> Bitstream:
    length, enc, _ = _split_line(line)
    return Bitstream(from_hex_lines([line], length, enc)[0], length, enc)
