"""Radix-2 FFT / IFFT.

Iterative decimation-in-time kernel: bit-reversal permutation followed by
log2(N) butterfly stages, vectorized with numpy so 2-D inputs transform
every row at once. Forward transform is unscaled, the inverse carries the
1/N factor, i.e. ifft(fft(x)) == x.

Twiddle factors and bit-reversal permutations are computed once per length
by functools.cache functions and returned as read-only arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonPowerOfTwoLength


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


def _transform(v: np.ndarray, sign: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    n = a.shape[-1] if a.ndim else 0
    if not is_power_of_two(n):
        raise NonPowerOfTwoLength(f"transform length must be a power of 2, got {n}")
    out = a[..., _bit_reverse_indices(n)].copy()
    w = _twiddles(n, sign)
    half = 1
    while half < n:
        m = 2 * half
        tw = w[:: n // m][:half]
        work = out.reshape(out.shape[:-1] + (n // m, m))
        top = work[..., :half]
        bot = work[..., half:]
        t = bot * tw
        bot[...] = top - t
        top[...] += t
        half = m
    return out


def fft(v) -> np.ndarray:
    """Forward DFT, X[k] = sum_n v[n] exp(-2j*pi*k*n/N); unscaled.

    Accepts a 1-D vector or a 2-D array (each row transformed). Length along
    the last axis must be a power of two.
    """
    return _transform(v, -1)


def ifft(v) -> np.ndarray:
    """Inverse DFT, x[n] = (1/N) sum_k v[k] exp(+2j*pi*k*n/N)."""
    a = _transform(v, +1)
    a /= a.shape[-1]
    return a
