"""OFDM framing: pilot allocation, IFFT modulation, cyclic prefix, FFT
demodulation and known-CSI equalization.

One OFDM symbol carries N subcarriers; the modulator synthesizes the time
signal with an inverse FFT and prepends the last cp_len samples as the
cyclic prefix. As long as every channel delay fits inside the prefix, the
linear channel acts circularly and each subcarrier is simply scaled by the
channel frequency response, which the equalizer divides back out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import transform
from .channel import ChannelModel
from .errors import (
    InvalidConfiguration,
    LengthMismatch,
    PilotCountExceedsN,
    SingularChannelGain,
    UnsupportedOrder,
)
from .modem import _AXIS_BITS
from .numerics import RngStream

PILOT_PATTERNS = ("block", "comb", "random")

# child-stream tags used by the allocator (derived from the caller's stream)
_TAG_INDICES = 101
_TAG_VALUES = 102

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class OfdmConfig:
    """Static link parameters; cp_len and pilot_count default to N/8."""

    n_subchannels: int
    cp_len: int | None = None
    pilot_pattern: str = "comb"
    pilot_count: int | None = None
    mod_order: int = 4
    block_period: int = 8

    def __post_init__(self):
        n = self.n_subchannels
        if not transform.is_power_of_two(n):
            raise InvalidConfiguration(f"n_subchannels must be a power of 2, got {n}")
        if self.cp_len is None:
            object.__setattr__(self, "cp_len", n // 8)
        if not 0 <= self.cp_len < n:
            raise InvalidConfiguration(f"cp_len must satisfy 0 <= cp_len < {n}, got {self.cp_len}")
        if self.pilot_pattern not in PILOT_PATTERNS:
            raise InvalidConfiguration(
                f"pilot_pattern must be one of {PILOT_PATTERNS}, got {self.pilot_pattern!r}"
            )
        if self.pilot_count is None:
            object.__setattr__(self, "pilot_count", n // 8)
        if self.pilot_count >= n:
            raise PilotCountExceedsN(f"pilot_count {self.pilot_count} must be < {n}")
        if self.pilot_count < 0:
            raise InvalidConfiguration(f"pilot_count must be >= 0, got {self.pilot_count}")
        if self.mod_order not in _AXIS_BITS:
            raise UnsupportedOrder(f"mod_order must be one of {tuple(_AXIS_BITS)}, got {self.mod_order}")
        if self.block_period < 1:
            raise InvalidConfiguration(f"block_period must be >= 1, got {self.block_period}")

    @property
    def samples_per_symbol(self) -> int:
        return self.n_subchannels + self.cp_len

    @property
    def nominal_data_count(self) -> int:
        """Data subcarriers in a data-bearing symbol (block pilots fill whole symbols)."""
        if self.pilot_pattern == "block":
            return self.n_subchannels
        return self.n_subchannels - self.pilot_count


@dataclass(frozen=True, eq=False)
class SubcarrierMap:
    """Disjoint pilot/data index sets covering every bin of an (R, N) frame
    tensor, plus known pilot values.

    Indices are flat into the raveled grid, ascending, so row r, bin k is
    r*N + k; pilot values follow pilot_indices.
    """

    pilot_indices: np.ndarray
    data_indices: np.ndarray
    pilot_values: np.ndarray


def _fixed_pilots(cfg: OfdmConfig, symbols: range) -> np.ndarray:
    """(len(symbols), N) pilot mask where the pattern alone fixes it:
    block, comb, and random without pilots."""
    n = cfg.n_subchannels
    is_pilot = np.zeros((len(symbols), n), dtype=bool)
    if cfg.pilot_pattern == "block":
        is_pilot[[j % cfg.block_period == 0 for j in symbols]] = True
    elif cfg.pilot_pattern == "comb" and cfg.pilot_count:
        # round half to even, as Python's round(i * n / count)
        comb = np.rint(np.arange(cfg.pilot_count) * n / cfg.pilot_count).astype(np.intp)
        is_pilot[:, comb] = True
    return is_pilot


@functools.lru_cache(maxsize=16)
def _fixed_layout(
    cfg: OfdmConfig, symbols: range, frames: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pilot and data flat indices of `frames` frames of a fixed layout."""
    is_pilot = np.tile(_fixed_pilots(cfg, symbols), (frames, 1))
    layout = np.flatnonzero(is_pilot), np.flatnonzero(~is_pilot)
    for a in layout:
        a.setflags(write=False)
    return layout


def data_bins(cfg: OfdmConfig, n_symbols: int) -> np.ndarray:
    """Mask of the bins that carry data in some symbol of an n_symbols
    frame; random pilots can leave any bin to data."""
    if cfg.pilot_pattern == "random":
        return np.ones(cfg.n_subchannels, dtype=bool)
    return ~_fixed_pilots(cfg, range(n_symbols)).all(axis=0)


def allocate_subcarriers(
    cfg: OfdmConfig, symbols: range, streams: Sequence[RngStream]
) -> SubcarrierMap:
    """Pick pilot and data subcarriers for the (F * len(symbols), N) frame
    tensor of F frames, one stream per frame, frame-major.

    block:  every block_period-th symbol is all pilots, the rest all data.
    comb:   fixed evenly spaced pilot indices round(i*N/pilot_count).
    random: pilot_count distinct indices, re-drawn per symbol index but
            deterministic in (stream, symbol index).

    Pilot values are known unit-energy QPSK points from a dedicated
    substream; the streams' own state is never consumed.
    """
    n = cfg.n_subchannels
    count = cfg.pilot_count
    if cfg.pilot_pattern == "random" and count:
        u = np.stack([s.child(_TAG_INDICES, j).uniforms(n) for s in streams for j in symbols])
        is_pilot = np.zeros(u.shape, dtype=bool)
        np.put_along_axis(is_pilot, np.argsort(u, axis=1, kind="stable")[:, :count], True, axis=1)
        pilots, data = np.flatnonzero(is_pilot), np.flatnonzero(~is_pilot)
    else:
        pilots, data = _fixed_layout(cfg, symbols, len(streams))
    if cfg.pilot_pattern == "block":
        valued, per_symbol = [j for j in symbols if j % cfg.block_period == 0], n
    else:
        valued, per_symbol = symbols, count
    if pilots.size:
        # one (re, im) sign pair per pilot, from its symbol's value substream
        u = np.concatenate(
            [s.child(_TAG_VALUES, j).uniforms(2 * per_symbol) for s in streams for j in valued]
        )
        re = np.where(u[0::2] < 0.5, 1.0, -1.0)
        im = np.where(u[1::2] < 0.5, 1.0, -1.0)
        values = (re + 1j * im) * _INV_SQRT2
    else:
        values = np.empty(0, dtype=np.complex128)
    return SubcarrierMap(pilot_indices=pilots, data_indices=data, pilot_values=values)


def build_frequency_symbol(data, smap: SubcarrierMap, cfg: OfdmConfig, *, out=None) -> np.ndarray:
    """Place data symbols (ascending flat index order) and pilots on the
    (R, N) grid of the map, which covers every bin."""
    d = np.asarray(data, dtype=np.complex128).ravel()
    if d.size != smap.data_indices.size:
        raise LengthMismatch(f"got {d.size} data symbols for {smap.data_indices.size} data subcarriers")
    size = d.size + smap.pilot_indices.size
    out = np.empty((size // cfg.n_subchannels, cfg.n_subchannels), dtype=np.complex128) if out is None else out
    flat = out.reshape(size, copy=False)
    flat[smap.data_indices] = d
    flat[smap.pilot_indices] = smap.pilot_values
    return out


def ofdm_modulate(freq, cfg: OfdmConfig, *, out=None) -> np.ndarray:
    """IFFT plus cyclic prefix: output length N + cp_len.

    Accepts a length-N vector or an (S, N) array of S symbols.
    """
    f = np.asarray(freq, dtype=np.complex128)
    n = cfg.n_subchannels
    if f.shape[-1] != n:
        raise LengthMismatch(f"frequency symbol length {f.shape[-1]} != N {n}")
    out = np.empty(f.shape[:-1] + (cfg.samples_per_symbol,), dtype=np.complex128) if out is None else out
    transform.ifft(f, out=out[..., cfg.cp_len :])
    out[..., : cfg.cp_len] = out[..., n:]
    return out


def ofdm_demodulate(rx, cfg: OfdmConfig, *, out=None) -> np.ndarray:
    """Drop the cyclic prefix and FFT back to the N subcarrier values."""
    r = np.asarray(rx, dtype=np.complex128)
    if r.shape[-1] != cfg.samples_per_symbol:
        raise LengthMismatch(f"received symbol length {r.shape[-1]} != N + cp_len {cfg.samples_per_symbol}")
    return transform.fft(r[..., cfg.cp_len :], out=out)


def channel_frequency_response(ch: ChannelModel, n: int) -> np.ndarray:
    """Per-subcarrier gain H[k] = sum_i gain_i * exp(-2j*pi*k*delay_i/n)."""
    k = np.arange(n)
    h = np.zeros(n, dtype=np.complex128)
    for gain, delay in ch.taps:
        h += gain * np.exp(-2j * np.pi * k * delay / n)
    return h


def equalize(freq, h, *, out=None) -> np.ndarray:
    """Divide out the known channel response, element by element along the
    last axis; the caller gathers h on the bins it equalizes."""
    f = np.asarray(freq, dtype=np.complex128)
    hv = np.asarray(h, dtype=np.complex128).ravel()
    if f.shape[-1] != hv.size:
        raise LengthMismatch(f"vector length {f.shape[-1]} != response length {hv.size}")
    if np.any(np.abs(hv) < 1e-12):
        raise SingularChannelGain("channel response is zero on a used subcarrier")
    return np.divide(f, hv, out=out)


def extract_data(freq, smap: SubcarrierMap, *, out=None) -> np.ndarray:
    """The data symbols of the map's (R, N) grid, in ascending flat index order."""
    flat = np.asarray(freq, dtype=np.complex128).reshape(-1)
    if flat.size != smap.data_indices.size + smap.pilot_indices.size:
        raise LengthMismatch(f"a grid of {flat.size} bins does not match the map's subcarriers")
    return np.take(flat, smap.data_indices, out=out, mode="clip")  # in range: the map covers the grid
