"""Gray-coded QAM mapping and hard-decision demapping for orders 4, 8, 16.

Constellations are rectangular grids normalized to unit average energy:

  order 4   (+/-1 +/- 1j) / sqrt(2)
  order 8   4x2 grid, re in {+/-1, +/-3}, im in {+/-1}, / sqrt(6)
  order 16  4x4 grid, re, im in {+/-1, +/-3}, / sqrt(10)

Labels use a per-axis reflected Gray code, in-phase bits first then
quadrature bits, most-significant bit first in stream order. Bit pattern 0
on an axis selects the most positive amplitude, so e.g. bits 00 map to
(+1+1j)/sqrt(2) for order 4. Nearest-neighbor points always differ in
exactly one label bit.

Demapping slices each axis against midpoint thresholds: a rectangular Gray
grid is two independent Gray PAM decisions, so no distance matrix or BLAS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LengthNotDivisible, UnsupportedOrder

# (in-phase bits, quadrature bits) per order
_AXIS_BITS = {4: (1, 1), 8: (2, 1), 16: (2, 2)}


@dataclass(frozen=True, eq=False)
class Constellation:
    """Immutable unit-energy constellation; points are indexed by label value."""

    order: int
    bits_per_symbol: int
    points: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        return np.arange(self.order)

    def bit_strings(self) -> list[str]:
        """Label bit patterns, MSB first, in label order."""
        return [format(v, f"0{self.bits_per_symbol}b") for v in range(self.order)]


def _axis_amplitudes(n_bits: int) -> np.ndarray:
    # descending odd levels indexed by Gray label: the v-th level carries
    # label v ^ (v >> 1), so bit pattern 0 lands on the most positive amplitude
    v = np.arange(1 << n_bits)
    amp = np.empty(v.size)
    amp[v ^ (v >> 1)] = np.arange(v.size - 1, -v.size, -2, dtype=float)
    return amp


def build_constellation(order: int) -> Constellation:
    """Gray-labeled unit-average-energy constellation for order 4, 8 or 16."""
    if order not in _AXIS_BITS:
        raise UnsupportedOrder(f"modulation order must be one of 4, 8, 16; got {order}")
    i_bits, q_bits = _AXIS_BITS[order]
    i_amp = _axis_amplitudes(i_bits)
    q_amp = _axis_amplitudes(q_bits)
    labels = np.arange(order)
    vi = labels >> q_bits
    vq = labels & ((1 << q_bits) - 1)
    points = i_amp[vi] + 1j * q_amp[vq]
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return Constellation(order=order, bits_per_symbol=i_bits + q_bits, points=points)


def map_bits(bits, c: Constellation, *, out=None) -> np.ndarray:
    """Map a {0,1} bit block to constellation points, bits_per_symbol at a time."""
    b = np.asarray(bits, dtype=np.uint8).ravel()
    k = c.bits_per_symbol
    if b.size % k != 0:
        raise LengthNotDivisible(f"bit block length {b.size} not divisible by bits_per_symbol {k}")
    if b.size and b.max() > 1:
        raise ValueError(f"bits must be 0 or 1, got {b.max()}")
    vals = np.zeros(b.size // k, dtype=np.intp)
    for col in range(k):  # MSB first
        vals = (vals << 1) | b[col::k]
    return np.take(c.points, vals, out=out, mode="clip")  # labels of 0/1 bits are in range


@functools.cache
def _slicer_tables(order: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Ascending decision thresholds per axis (I, Q), and the label bits of
    the point at level position i_pos * n_q + q_pos."""
    c = build_constellation(order)
    # labels of the grid points, row i_pos, column q_pos, levels ascending
    grid = np.lexsort((c.points.imag, c.points.real)).reshape(-1, 1 << _AXIS_BITS[order][1])
    thresholds = []
    for levels, labels in ((c.points.real[grid[:, 0]], grid[:, 0]), (c.points.imag[grid[0]], grid[0])):
        mid = (levels[:-1] + levels[1:]) / 2
        # an input on a threshold counts as below it; where the level above
        # has the lower label, one ulp down makes the tie go up instead
        thresholds.append(np.where(labels[1:] < labels[:-1], np.nextafter(mid, -np.inf), mid))
    return thresholds, np.array([list(b) for b in c.bit_strings()], dtype=np.uint8)[grid.ravel()]


def demap_symbols(symbols, c: Constellation) -> np.ndarray:
    """Hard-decision demap: nearest point in Euclidean distance, sliced per axis.

    An input exactly on a decision boundary goes to the lowest label among
    the equidistant points. Returns the recovered bits as a uint8 array, MSB
    first within each symbol.
    """
    s = np.asarray(symbols, dtype=np.complex128).ravel()
    thresholds, bits = _slicer_tables(c.order)
    # a level position is the count of thresholds below the input; comparing
    # contiguous copies is several times faster than np.searchsorted here
    pos = np.zeros(s.size, dtype=np.uint8)
    for x, axis_thresholds in zip((s.real.copy(), s.imag.copy()), thresholds):
        pos *= axis_thresholds.size + 1
        for t in axis_thresholds:
            pos += x > t
    return np.take(bits, pos, axis=0).ravel()


def write_constellation_csv(c: Constellation, sink) -> None:
    """Dump (label, point) rows as CSV to a path or file-like sink."""
    lines = ["label,bits,real,imag"]
    for v, bits in enumerate(c.bit_strings()):
        p = c.points[v]
        lines.append(f"{v},{bits},{float(p.real)!r},{float(p.imag)!r}")
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", newline="") as f:
            f.write(text)
