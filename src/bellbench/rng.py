"""Self-contained xorshift64* generator for reproducible randomized checks.

State update x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output is the state
times the 64-bit multiplier 0x2545F4914F6CDD1D (Vigna's xorshift64*). Seeds
pass through one splitmix64 scramble so that small consecutive seeds give
unrelated streams; a zero state is remapped to the splitmix64 increment.
Everything is integer arithmetic, so streams are identical on every platform,
which keeps report bytes stable across runs and machines.

`next_uint64` is the scalar reference, one step per call. Bulk draws
(`uniforms`, `signs`, `sign_matrix`) compute the same words in numpy. The
state update x -> T x is linear over GF(2), so T^k x is the XOR of T^k
applied to each byte of x: eight 256-entry tables per power. The tables for
T^(2^j) are derived from the scalar step, once per process and only when a
bulk draw first needs them; they do not depend on the seed. Given the states
s_1..s_k, the next k are T^k s_1..T^k s_k, so W states take about log2(W)
table passes. A bulk draw leaves the generator at its last state, so draws
of either kind continue one stream.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_SPLITMIX_INC = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_INC) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _step(x: int) -> int:
    """One xorshift state update T."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK64
    x ^= x >> 27
    return x


# Row b of a (8, m) byte matrix indexes the flattened tables from 256 * b.
_BYTE_OFFSETS = np.arange(0, 2048, 256, dtype=np.intp)[:, None]


def _apply(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T^k x for every entry of the uint64 array x, given the flattened byte
    tables of T^k: the XOR over bytes b of tables[256 b + byte_b(x)]."""
    x_bytes = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8).T
    return np.bitwise_xor.reduce(tables[x_bytes + _BYTE_OFFSETS], axis=0)


@functools.cache
def _jump_tables(j: int) -> np.ndarray:
    """Flattened (8, 256) tables: entry 256 b + v is T^(2^j) (v << 8b)."""
    if j == 0:
        images = np.array([_step(1 << i) for i in range(64)], dtype=np.uint64)
    else:  # T^(2^j) e_i = T^(2^(j-1)) T^(2^(j-1)) e_i
        previous = _jump_tables(j - 1)
        images = _apply(previous, _apply(previous, np.uint64(1) << np.arange(64, dtype=np.uint64)))
    tables = np.zeros((8, 256), dtype=np.uint64)
    for bit in range(8):  # entries with top set bit `bit` extend the ones below
        tables[:, 1 << bit:2 << bit] = tables[:, :1 << bit] ^ images[bit::8, None]
    tables = tables.reshape(-1)
    tables.flags.writeable = False
    return tables


class XorShift64Star:
    def __init__(self, seed: int):
        self._state = _splitmix64(seed & _MASK64) or _SPLITMIX_INC

    def next_uint64(self) -> int:
        self._state = _step(self._state)
        return (self._state * _MULTIPLIER) & _MASK64

    def _words(self, count: int) -> np.ndarray:
        """The next count outputs, equal to count calls of next_uint64."""
        states = np.empty(count, dtype=np.uint64)
        if count == 0:
            return states
        states[0] = _step(self._state)
        k, j = 1, 0
        while k < count:
            m = min(k, count - k)
            states[k:k + m] = _apply(_jump_tables(j), states[:m])
            k, j = k + m, j + 1
        self._state = int(states[-1])
        return states * np.uint64(_MULTIPLIER)

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        return (self._words(count) >> np.uint64(11)) * 2.0**-53

    def signs(self, count: int) -> np.ndarray:
        """count values in {-1, +1}, one per stream bit, LSB first per word."""
        raw = self._words((count + 63) // 64).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8), bitorder="little")[:count]
        return bits * 2.0 - 1.0

    def sign_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.signs(rows * cols).reshape(rows, cols)
