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

Each order's constellation is built once, at import, and carries its own
slicer: each axis's midpoint thresholds and the label bits of each grid
position. A rectangular Gray grid is two independent Gray PAM decisions, so
demapping needs no distance matrix or BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthNotDivisible, UnsupportedOrder

# (in-phase bits, quadrature bits) per order: the one table of supported orders
_AXIS_BITS = {4: (1, 1), 8: (2, 1), 16: (2, 2)}


@dataclass(frozen=True, eq=False)
class Constellation:
    """Immutable unit-energy constellation and its slicer: points indexed by label value, each
    axis's (I, Q) ascending thresholds, and the label bits of the point at level position
    i_pos * n_q + q_pos."""

    order: int
    bits_per_symbol: int
    points: np.ndarray
    thresholds: tuple[np.ndarray, np.ndarray]
    label_bits: np.ndarray

    def bit_strings(self) -> list[str]:
        """Label bit patterns, MSB first, in label order."""
        return [format(v, f"0{self.bits_per_symbol}b") for v in range(self.order)]


def _build(order: int) -> Constellation:
    i_bits, q_bits = _AXIS_BITS[order]
    # each axis's ascending odd levels and their Gray labels: the v-th level from the top
    # carries label v ^ (v >> 1), so bit pattern 0 lands on the most positive amplitude
    axes = []
    for n in (1 << i_bits, 1 << q_bits):
        v = np.arange(n - 1, -1, -1)
        axes.append((np.arange(1 - n, n, 2.0), v ^ (v >> 1)))
    (i_levels, i_labels), (q_levels, q_labels) = axes
    labels = (i_labels[:, None] << q_bits | q_labels).ravel()  # of the point at i_pos * n_q + q_pos
    points = (i_levels[:, None] + 1j * q_levels).ravel()[np.argsort(labels)]
    scale = np.sqrt(np.mean(np.abs(points) ** 2))
    points /= scale
    thresholds = []
    for levels, axis_labels in axes:
        mid = (levels[:-1] / scale + levels[1:] / scale) / 2
        # an input on a threshold counts as below it; where the level above
        # has the lower label, one ulp down makes the tie go up instead
        thresholds.append(np.where(axis_labels[1:] < axis_labels[:-1], np.nextafter(mid, -np.inf), mid))
    label_bits = (labels[:, None] >> np.arange(i_bits + q_bits - 1, -1, -1) & 1).astype(np.uint8)
    for a in (points, *thresholds, label_bits):
        a.setflags(write=False)
    return Constellation(order, i_bits + q_bits, points, tuple(thresholds), label_bits)


_CONSTELLATIONS = {order: _build(order) for order in _AXIS_BITS}


def build_constellation(order: int) -> Constellation:
    """The Gray-labeled unit-average-energy constellation of order 4, 8 or 16."""
    if order not in _CONSTELLATIONS:
        raise UnsupportedOrder(f"modulation order must be one of {tuple(_CONSTELLATIONS)}, got {order}")
    return _CONSTELLATIONS[order]


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


def demap_symbols(symbols, c: Constellation) -> np.ndarray:
    """Hard-decision demap: nearest point in Euclidean distance, sliced per axis.

    An input exactly on a decision boundary goes to the lowest label among
    the equidistant points. Returns the recovered bits as a uint8 array, MSB
    first within each symbol.
    """
    s = np.asarray(symbols, dtype=np.complex128).ravel()
    # a level position is the count of thresholds below the input; comparing
    # contiguous copies is several times faster than np.searchsorted here
    pos = np.zeros(s.size, dtype=np.uint8)
    for x, axis_thresholds in zip((s.real.copy(), s.imag.copy()), c.thresholds):
        pos *= axis_thresholds.size + 1
        for t in axis_thresholds:
            pos += x > t
    return np.take(c.label_bits, pos, axis=0).ravel()


def write_constellation_csv(c: Constellation, sink) -> None:
    """Dump (label, point) rows as CSV to a path or file-like sink."""
    lines = ["label,bits,real,imag"]
    for v, bits in enumerate(c.bit_strings()):
        p = c.points[v]
        lines.append(f"{v},{bits},{float(p.real)!r},{float(p.imag)!r}")
    _write_lines(lines, sink)


def _write_lines(lines, sink) -> None:
    """Write each line plus a newline to a path or file-like sink."""
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", newline="") as f:
            f.write(text)
