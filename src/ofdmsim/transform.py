"""FFT / IFFT for power-of-two lengths, computed by numpy's pocketfft.

2-D inputs transform every row at once. Forward is unscaled, the inverse
carries the 1/N factor: ifft(fft(x)) == x. A length that is not a power of
two raises NonPowerOfTwoLength. An `out` array may be the input itself or
overlap it.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPowerOfTwoLength


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _checked(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    n = a.shape[-1] if a.ndim else 0
    if not is_power_of_two(n):
        raise NonPowerOfTwoLength(f"transform length must be a power of 2, got {n}")
    return a


def fft(v, *, out=None) -> np.ndarray:
    """Forward DFT, X[k] = sum_n v[n] exp(-2j*pi*k*n/N); unscaled.

    Accepts a 1-D vector or a 2-D array (each row transformed). Length along
    the last axis must be a power of two.
    """
    return np.fft.fft(_checked(v), out=out)


def ifft(v, *, out=None) -> np.ndarray:
    """Inverse DFT, x[n] = (1/N) sum_k v[k] exp(+2j*pi*k*n/N)."""
    return np.fft.ifft(_checked(v), out=out)
