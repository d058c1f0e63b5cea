"""Deterministic random streams, Gaussian noise, and the normal tail function.

A stream is a Philox key, (seed, stream_id), plus a position: the count of
uniforms it has drawn. Philox is counter-based, so each thread keeps one
generator next to its workspace arrays and sets it to a stream's key and
position before each draw; a stream costs nothing to make (child_uniforms makes
none per row) and reproduces independent of scheduling. A bit costs one uniform, a
Gaussian pair exactly two (box_muller turns them in place), skip(n) passes n undrawn.
A bit is 1 where its raw Philox word has the top bit clear, exactly where random() < 0.5.
box_muller reads cos and sin from a 1 024-entry table, corrected by angle addition, as close as libm.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Sequence

import numpy as np


class _ThreadPhilox(threading.local):
    """A thread's one generator, made on its first draw, and the one state dict each draw sets it to."""

    def __init__(self):
        self.gen, self.counter, self.key = np.random.Generator(np.random.Philox(0)), [0, 0, 0, 0], [0, 0]
        self.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
                      "uinteger": 0, "state": {"counter": self.counter, "key": self.key}}  # the setter copies it


_MASK64 = (1 << 64) - 1

_SQRT2 = math.sqrt(2.0)
BLOCK = 4096  # draws per pass over a long array: temporaries the heap recycles
_COS, _SIN = np.cos((2.0 * np.pi / 1024) * np.arange(1024)), np.sin((2.0 * np.pi / 1024) * np.arange(1024))
_scratch = threading.local()  # each thread's {owner: its workspace array}
_philox = _ThreadPhilox()  # and its generator; a draw sets it to a stream's key and position


def _splitmix64(z):
    """One splitmix64 step; used to derive child stream ids. On a uint64 array
    it steps every element: numpy's uint64 arithmetic wraps mod 2**64 already."""
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
        block, skip = divmod(self._pos, 4)  # Philox makes 4 doubles per counter step and steps before each block
        _philox.counter[0], _philox.key[:] = block, (self.seed, self.stream_id)
        _philox.gen.bit_generator.state = _philox.state
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

    def skip(self, n: int) -> None:
        """Advance past the next n uniforms without drawing them."""
        if n < 0:
            raise ValueError(f"cannot skip a negative count of uniforms, got {n}")
        self._pos += n

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next n uniform doubles on [0, 1), written to out (of n doubles) if given."""
        u = self._gen().random(None if out is not None else n, out=out)  # a size with out costs a shape check
        self._pos += u.size
        return u

    def bits(self, n: int) -> np.ndarray:
        """Next n equiprobable bits as uint8; consumes one uniform per bit."""
        out, raw = np.empty(n, dtype=np.uint8), self._gen().bit_generator.random_raw
        for a in range(0, n, BLOCK):  # random() < 0.5 exactly when the top bit of its raw word is clear
            np.less(raw(min(BLOCK, n - a)), 1 << 63, out=out[a : a + BLOCK].view(np.bool_))
        self._pos += out.size
        return out

    def gaussian_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n independent standard-normal pairs via Box-Muller (2 uniforms each)."""
        u = box_muller(self._gen().random(2 * n))
        self._pos += u.size
        return u[0::2], u[1::2]


def box_muller(u: np.ndarray) -> np.ndarray:
    """Box-Muller in place: each pair (u0, u1) of the contiguous uniforms u becomes the Gaussians
    re, im = r cos(2 pi u1), r sin(2 pi u1), r = sqrt(-2 log1p(-u0)); a complex view reads re + j im.

    No libm trig: with k = int(1024 u1) in [0, 1023], 2 pi u1 = 2 pi k/1024 + b splits exactly, 0 <= b < 2 pi/1024;
    Taylor terms to b^5 and b^6 give sin b and cos b - 1 (next terms < 1e-19), and angle addition corrects the table's
    cos and sin of 2 pi k/1024 with them. Each output is within 1e-15 max(1, r) of exact, as np.cos and np.sin are."""
    for p in np.split(u.reshape(-1, 2, copy=False), range(BLOCK, u.size // 2, BLOCK)):  # small temporaries
        r, f = np.sqrt(-2.0 * np.log1p(-p[:, 0])), p[:, 1] * 1024.0  # f and f - k are exact
        k = f.astype(np.intp)
        b = (f - k) * (2.0 * np.pi / 1024)
        b2 = b * b
        sb, cb = b * (1.0 + b2 * (-1 / 6 + b2 * (1 / 120))), b2 * (-0.5 + b2 * (1 / 24 - b2 * (1 / 720)))
        ca, sa = _COS.take(k), _SIN.take(k)
        np.multiply(r, ca + (ca * cb - sa * sb), out=p[:, 0])
        np.multiply(r, sa + (sa * cb + ca * sb), out=p[:, 1])
    return u


def child_uniforms(streams: Sequence[RngStream], tag: int, indices: Sequence[int], out: np.ndarray) -> np.ndarray:
    """Fill row r of out with the first uniforms of streams[r // len(indices)].child(tag, indices[r % len(indices)]):
    every child id hashed in one array pass, no stream made, and each row only re-keys this thread's generator."""
    ids = _splitmix64(np.array([s.stream_id for s in streams], dtype=np.uint64) ^ _path_hash(tag))
    ids = _splitmix64(ids[:, None] ^ np.array([_path_hash(j) for j in indices], dtype=np.uint64))
    gen, state, key = _philox.gen, _philox.state, _philox.key
    _philox.counter[0] = 0  # every row starts at position 0
    for s, row_ids, rows in zip(streams, ids.tolist(), out.reshape(len(streams), len(indices), out.shape[1])):
        for sid, row in zip(row_ids, rows):
            key[:] = s.seed, sid
            gen.bit_generator.state = state
            gen.random(out=row)
    return out


def seeded_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create a reproducible uniform stream for the given (seed, stream_id)."""
    return RngStream(seed, stream_id)


def q_function(x: float) -> float:
    """Tail probability P(Z > x) of the standard normal distribution.

    Evaluated through the complementary error function; absolute error is
    well below 1e-10 over the whole double range.
    """
    return 0.5 * math.erfc(x / _SQRT2)
