"""Radix-4 Stockham FFT / IFFT.

Decimation-in-time stages in Stockham autosort form, so results come out in
natural order with no bit-reversal permutation; a radix-2 stage runs first
when log2(N) is odd. 2-D inputs transform every row at once. Forward is
unscaled, the inverse carries the 1/N factor: ifft(fft(x)) == x. Twiddles
are cached per stage length, read-only. Each thread keeps one scratch array
of its last input's size plus a quarter (0.82 MB at 10 x 4096).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonPowerOfTwoLength
from .numerics import workspace


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@functools.cache
def _twiddles(m: int, sign: int) -> np.ndarray:  # (3, m/4, 1): exp(sign*2j*pi*c*k/m), c = 1..3
    w = np.exp(sign * 2j * np.pi / m * np.arange(1, 4)[:, None, None] * np.arange(m // 4)[:, None])
    w.setflags(write=False)
    return w


def _transform(v, sign: int, out) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    lead, n = a.shape[:-1], a.shape[-1] if a.ndim else 0
    if not is_power_of_two(n):
        raise NonPowerOfTwoLength(f"transform length must be a power of 2, got {n}")
    out = np.empty(a.shape, dtype=np.complex128) if out is None else out
    if np.may_share_memory(a, out):
        a = a.copy()  # the stages write out while they still read the input
    buf = workspace("transform", (a.size * 5 // 4,))  # flat: the stages reshape it
    scratch, tmp = buf[: a.size], buf[a.size :]
    dests = (out, scratch) if n.bit_length() // 2 % 2 else (scratch, out)  # ceil(log2 n / 2) stages end in out
    src, span, stage = a, 1, 0
    bufsize = np.setbufsize(256)  # numpy buffers stage views, which are not flat; 8192 elements spill L1
    try:
        if n.bit_length() % 2 == 0:  # odd log2 n: one radix-2 stage
            s, d = src.reshape(lead + (2, n // 2)), dests[0].reshape(lead + (2, n // 2), copy=False)
            np.add(s[..., 0, :], s[..., 1, :], out=d[..., 0, :])
            np.subtract(s[..., 0, :], s[..., 1, :], out=d[..., 1, :])
            src, span, stage = dests[0], 2, 1
        while span < n:
            # slot d of dst: Y_d[k, j] = sum_c w4^(d*c) a_c, a_c = w^(c*k) X[k, c*r + j], r = n / (4*span);
            # Y0, Y2 = (a0 + a2) +/- (a1 + a3), Y1, Y3 = (a0 - a2) +/- w4 (a1 - a3); t holds a2, then a1 + a3
            r, dst = n // (4 * span), dests[stage % 2]
            s0, s1, s2, s3 = (src.reshape(lead + (span, 4, r))[..., c, :] for c in range(4))
            d0, d1, d2, d3 = (dst.reshape(lead + (4, span, r), copy=False)[..., c, :, :] for c in range(4))
            t = tmp.reshape(lead + (span, r))
            if span > 1:
                w = _twiddles(4 * span, sign)
                s1, s2, s3 = np.multiply(s1, w[0], out=d1), np.multiply(s2, w[1], out=t), np.multiply(s3, w[2], out=d3)
            np.subtract(s0, s2, out=d2)
            np.add(s0, s2, out=d0)
            np.add(s1, s3, out=t)
            np.multiply(np.subtract(s1, s3, out=d3), sign * 1j, out=d3)
            np.add(d2, d3, out=d1)
            np.subtract(d2, d3, out=d3)
            np.subtract(d0, t, out=d2)
            np.add(d0, t, out=d0)
            src, span, stage = dst, 4 * span, stage + 1
        if n == 1:
            np.copyto(out, a)
    finally:
        np.setbufsize(bufsize)
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
    return np.multiply(a, 1.0 / a.shape[-1], out=a)  # equals a / N for N = 2^k; complex division costs 10x more
