"""Multipath FIR channel and calibrated AWGN injection.

The channel is a sparse FIR filter y[n] = sum_i gain_i * x[n - delay_i],
applied to each row of its input, a frame of consecutive OFDM symbols, so
the symbols of a frame see physically correct inter-symbol leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfiguration, NonPositiveRefPower
from .numerics import BLOCK, RngStream


@dataclass(frozen=True)
class ChannelModel:
    """Static multipath channel: taps are (complex gain, integer sample delay)."""

    taps: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        if len(self.taps) == 0:
            raise InvalidConfiguration("channel needs at least one tap")
        norm = []
        for gain, delay in self.taps:
            d = int(delay)
            if d != delay or d < 0:
                raise InvalidConfiguration(f"tap delay must be a non-negative integer, got {delay}")
            norm.append((complex(gain), d))
        delays = [d for _, d in norm]
        if len(set(delays)) != len(delays):
            raise InvalidConfiguration("tap delays must be distinct")
        norm.sort(key=lambda t: t[1])
        object.__setattr__(self, "taps", tuple(norm))

    @classmethod
    def identity(cls) -> "ChannelModel":
        return cls(((1.0 + 0.0j, 0),))


def apply_multipath(x, ch: ChannelModel, *, out=None) -> np.ndarray:
    """FIR-filter each row along the last axis, starting from silence:
    samples before the start of a row are zero. out must not overlap x."""
    xv = np.asarray(x, dtype=np.complex128)
    n = xv.shape[-1]
    y = np.empty(xv.shape, dtype=np.complex128) if out is None else out
    y[...] = 0
    for gain, delay in ch.taps:
        if delay < n:
            y[..., delay:] += gain * xv[..., : n - delay]
    return y


def signal_power(x) -> np.ndarray | float:
    """Mean of |x[n]|^2 along the last axis: one value per row."""
    xv = np.asarray(x)
    if xv.size == 0:
        raise EmptyInput("signal_power of an empty vector")
    return np.mean(np.abs(xv) ** 2, axis=-1)


def add_awgn(x, snr_db: float, ref_power: float, rng: RngStream, *, out=None) -> np.ndarray:
    """Add complex white Gaussian noise at the commanded SNR.

    Per-sample noise variance is ref_power / 10^(snr_db/10), split equally
    between real and imaginary parts. snr_db = +inf is the zero-noise flag.
    """
    if not ref_power > 0:
        raise NonPositiveRefPower(f"reference power must be > 0, got {ref_power}")
    xv = np.asarray(x, dtype=np.complex128)
    out = np.positive(xv, out=out, order="C")  # a copy of x, into out when one is given
    if math.isinf(snr_db) and snr_db > 0:
        return out
    noise_power = ref_power * 10.0 ** (-snr_db / 10.0)
    sigma = math.sqrt(noise_power / 2.0)
    for a in range(0, xv.size, BLOCK):  # the same draws, in order, as one call
        re, im = rng.gaussian_pairs(min(BLOCK, xv.size - a))
        out.reshape(xv.size, copy=False)[a : a + re.size] += sigma * (re + 1j * im)  # raises if not a view
    return out


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, content) of each line of a text file that holds more
    than blanks and a '#' comment; content that does not decode is bad
    configuration, not an I/O failure."""
    with open(path) as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfiguration(f"{path} is not text: {exc}") from exc
    content = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(lines, start=1))
    return [(lineno, line) for lineno, line in content if line]


def load_channel_profile(path) -> ChannelModel:
    """Read a channel profile file: one "delay gain_real gain_imag" per line.

    Blank lines and '#' comments are ignored.
    """
    taps = []
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise InvalidConfiguration(
                f"{path}:{lineno}: expected 'delay gain_real gain_imag', got {line!r}"
            )
        try:
            delay = int(parts[0])
            gain = complex(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise InvalidConfiguration(f"{path}:{lineno}: {exc}") from exc
        taps.append((gain, delay))
    if not taps:
        raise InvalidConfiguration(f"{path}: no channel taps found")
    return ChannelModel(tuple(taps))
