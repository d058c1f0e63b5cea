"""Deterministic random streams, Gaussian noise, and the normal tail function.

A stream is a Philox key, (seed, stream_id), plus a position: the count of
uniforms it has drawn. Philox is counter-based, so each thread keeps one
generator next to its workspace arrays and sets it to a stream's key and
position before each draw; a stream costs nothing to make and reproduces
independent of scheduling. Bits cost one uniform each and Gaussian pairs
come from the Box-Muller transform (exactly two uniforms per pair).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1

_SQRT2 = math.sqrt(2.0)
BLOCK = 4096  # draws per pass over a long array: temporaries the heap recycles
_scratch = threading.local()  # each thread's {owner: its workspace array}
_philox = threading.local()  # and its one generator; a draw sets it to a stream's key and position


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


class RngStream:
    """A single-owner uniform random stream: the key (seed, stream_id) plus
    the count of uniforms drawn. Identical keys reproduce the identical
    sequence; distinct stream_ids share no state. A stream holds no
    generator, so it may be continued on another thread, but it is not safe
    to share between concurrent tasks; give each worker its own stream.
    """

    __slots__ = ("seed", "stream_id", "_pos")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._pos = 0

    def _gen(self) -> np.random.Generator:
        if not hasattr(_philox, "gen"):  # this thread's generator, set below to draw this stream's next uniform
            _philox.gen = np.random.Generator(np.random.Philox(0))
        block, skip = divmod(self._pos, 4)  # Philox makes 4 doubles per counter step and steps before each block
        _philox.gen.bit_generator.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                                           "has_uint32": 0, "uinteger": 0,
                                           "state": {"counter": (block, 0, 0, 0), "key": (self.seed, self.stream_id)}}
        if skip:
            _philox.gen.random(skip)
        return _philox.gen

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
        u = self._gen().random(n)
        self._pos += u.size
        return u

    def bits(self, n: int) -> np.ndarray:
        """Next n equiprobable bits as uint8; consumes one uniform per bit."""
        out, gen = np.empty(n, dtype=np.uint8), self._gen()
        for a in range(0, n, BLOCK):
            np.less(gen.random(min(BLOCK, n - a)), 0.5, out=out[a : a + BLOCK].view(np.bool_))
        self._pos += out.size
        return out

    def gaussian_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n independent standard-normal pairs via Box-Muller (2 uniforms each)."""
        u = self._gen().random(2 * n)
        self._pos += u.size
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
