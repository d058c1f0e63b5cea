"""Deterministic random streams, Gaussian noise, and the normal tail function.

Randomness is built on the Philox counter-based bit generator keyed by a
(seed, stream_id) pair, so every substream is reproducible independent of
scheduling. All sampling goes through the generator's raw uniform-double
output: bits cost one uniform each and Gaussian pairs are produced by the
Box-Muller transform (exactly two uniforms per pair), which keeps streams
alignment-stable across runs.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

_SQRT2 = math.sqrt(2.0)
BLOCK = 4096  # draws per pass over a long array: temporaries the heap recycles
_scratch = threading.local()  # each thread's {owner: its workspace array}


def _splitmix64(z: int) -> int:
    """One splitmix64 step; used to derive child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=4096)
def _path_hash(p: int) -> int:
    return _splitmix64((p & _MASK64) ^ 0xD1B54A32D192ED03)  # tags and symbol indices recur


def workspace(owner: str, shape: tuple[int, ...]) -> np.ndarray:
    """This thread's complex scratch array for owner; a new shape replaces it."""
    arrays = vars(_scratch)
    if owner not in arrays or arrays[owner].shape != shape:
        arrays[owner] = np.empty(shape, dtype=np.complex128)
    return arrays[owner]


class _PhiloxKey(ISeedSequence):
    """Hands Philox a fixed 128-bit key as the two uint64 words it asks its
    seed sequence for. Philox(key=...) gives the same generator but first
    builds and discards an OS-entropy SeedSequence, which costs more than
    the rest of the set-up, and small-N frames set up dozens of streams."""

    def __init__(self, seed: int, stream_id: int):
        self.words = np.array([seed, stream_id], dtype=np.uint64)  # key = stream_id << 64 | seed

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError(f"Philox asked for {n_words} {np.dtype(dtype)} words")
        return self.words


class RngStream:
    """A single-owner uniform random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the identical sample
    sequence; distinct stream_ids share no state. Instances are not safe to
    share between concurrent tasks; give each worker its own stream.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, self.stream_id)))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def child(self, *path: int) -> "RngStream":
        """Derive a new independent stream without consuming this stream's state.

        The child id is a hash of this stream's id and the given path
        indices, so child(i) is deterministic and child(i) != child(j) for
        i != j (up to 64-bit hash collisions).
        """
        sid = self.stream_id
        for p in path:
            sid = _splitmix64(sid ^ _path_hash(int(p)))
        return RngStream(self.seed, sid)

    def uniforms(self, n: int) -> np.ndarray:
        """Next n uniform doubles on [0, 1)."""
        return self._gen.random(n)

    def bits(self, n: int) -> np.ndarray:
        """Next n equiprobable bits as uint8; consumes one uniform per bit."""
        out = np.empty(n, dtype=np.uint8)
        for a in range(0, n, BLOCK):
            np.less(self._gen.random(min(BLOCK, n - a)), 0.5, out=out[a : a + BLOCK].view(np.bool_))
        return out

    def gaussian_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n independent standard-normal pairs via Box-Muller (2 uniforms each)."""
        u = self._gen.random(2 * n)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = (2.0 * np.pi) * u[1::2]
        return r * np.cos(theta), r * np.sin(theta)


def seeded_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create a reproducible uniform stream for the given (seed, stream_id)."""
    return RngStream(seed, stream_id)


def q_function(x: float) -> float:
    """Tail probability P(Z > x) of the standard normal distribution.

    Evaluated through the complementary error function; absolute error is
    well below 1e-10 over the whole double range.
    """
    return 0.5 * math.erfc(x / _SQRT2)
