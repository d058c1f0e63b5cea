"""Radix-2 FFT / IFFT.

Iterative decimation-in-time kernel: bit-reversal permutation followed by
log2(N) butterfly stages, vectorized with numpy so 2-D inputs transform
every row at once. Forward transform is unscaled, the inverse carries the
1/N factor, i.e. ifft(fft(x)) == x.

Twiddles and bit-reversal permutations are cached per length, read-only. Each
thread keeps one scratch array of its last input shape (0.66 MB at 10 x 4096).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonPowerOfTwoLength
from .numerics import workspace


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@functools.cache
def _bit_reverse_indices(n: int) -> np.ndarray:
    rev = np.zeros(n, dtype=np.intp)
    idx = np.arange(n)
    for _ in range(n.bit_length() - 1):
        rev = (rev << 1) | (idx & 1)
        idx = idx >> 1
    rev.setflags(write=False)
    return rev


@functools.cache
def _twiddles(n: int, sign: int) -> np.ndarray:
    w = np.exp(sign * 2j * np.pi * np.arange(n // 2) / n)
    w.setflags(write=False)
    return w


def _transform(v, sign: int, out) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    n = a.shape[-1] if a.ndim else 0
    if not is_power_of_two(n):
        raise NonPowerOfTwoLength(f"transform length must be a power of 2, got {n}")
    scratch = np.take(a, _bit_reverse_indices(n), axis=-1, out=workspace("transform", a.shape), mode="clip")
    out = np.positive(scratch, out=out)  # a copy, into out when one is given
    w = _twiddles(n, sign)
    half = 1
    while half < n:
        m = 2 * half
        tw = w[:: n // m][:half]
        work = out.reshape(out.shape[:-1] + (n // m, m))  # splitting an axis is always a view
        top = work[..., :half]
        bot = work[..., half:]
        t = np.multiply(bot, tw, out=scratch.reshape(-1)[: bot.size].reshape(bot.shape))
        bot[...] = top - t
        top[...] += t
        half = m
    return out


def fft(v, *, out=None) -> np.ndarray:
    """Forward DFT, X[k] = sum_n v[n] exp(-2j*pi*k*n/N); unscaled.

    Accepts a 1-D vector or a 2-D array (each row transformed). Length along
    the last axis must be a power of two.
    """
    return _transform(v, -1, out)


def ifft(v, *, out=None) -> np.ndarray:
    """Inverse DFT, x[n] = (1/N) sum_k v[k] exp(+2j*pi*k*n/N)."""
    a = _transform(v, +1, out)
    a /= a.shape[-1]
    return a
