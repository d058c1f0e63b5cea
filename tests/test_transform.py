import tracemalloc

import numpy as np
import pytest

from ofdmsim.errors import NonPowerOfTwoLength
from ofdmsim.transform import fft, ifft


def dft_direct(x):
    """O(N^2) DFT oracle, straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ x


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_impulse_is_all_ones():
    assert np.allclose(fft([1, 0, 0, 0]), np.ones(4), atol=1e-14)


def test_dc_concentrates_in_bin_zero():
    assert np.allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)


def test_tone_hits_single_bin():
    n, k = 8, 3
    tone = np.exp(2j * np.pi * k * np.arange(n) / n)
    out = fft(tone)
    expected = np.zeros(n, dtype=complex)
    expected[k] = n
    assert np.max(np.abs(out - expected)) < 1e-12


def test_one_hot_ifft_is_scaled_tone():
    n, k = 16, 5
    freq = np.zeros(n, dtype=complex)
    freq[k] = 1.0
    expected = np.exp(2j * np.pi * k * np.arange(n) / n) / n
    assert np.max(np.abs(ifft(freq) - expected)) < 1e-14


@pytest.mark.parametrize("n", [2**p for p in range(1, 13)])
def test_roundtrip_all_power_of_two_lengths(n):
    rng = np.random.default_rng(n)
    x = _random_complex(rng, n)
    assert np.max(np.abs(ifft(fft(x)) - x)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_matches_direct_dft(n):
    rng = np.random.default_rng(100 + n)
    x = _random_complex(rng, n)
    assert np.max(np.abs(fft(x) - dft_direct(x))) < 1e-10


def test_parseval():
    rng = np.random.default_rng(17)
    x = _random_complex(rng, 1024)
    t_energy = np.sum(np.abs(x) ** 2)
    f_energy = np.sum(np.abs(fft(x)) ** 2) / x.size
    assert abs(t_energy - f_energy) / t_energy < 1e-10


def test_linearity():
    rng = np.random.default_rng(23)
    x = _random_complex(rng, 256)
    y = _random_complex(rng, 256)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    lhs = fft(a * x + b * y)
    rhs = a * fft(x) + b * fft(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_circular_shift_theorem():
    rng = np.random.default_rng(31)
    n, d = 128, 5
    x = _random_complex(rng, n)
    shifted = np.roll(x, d)
    phase = np.exp(-2j * np.pi * np.arange(n) * d / n)
    assert np.max(np.abs(fft(shifted) - fft(x) * phase)) < 1e-10


@pytest.mark.parametrize("n", [0, 3, 12, 100])
def test_non_power_of_two_rejected(n):
    with pytest.raises(NonPowerOfTwoLength):
        fft(np.zeros(n, dtype=complex))
    with pytest.raises(NonPowerOfTwoLength):
        ifft(np.zeros(n, dtype=complex))


def test_batched_rows_match_single_transforms():
    rng = np.random.default_rng(41)
    block = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    batched = fft(block)
    for row in range(5):
        assert np.array_equal(batched[row], fft(block[row]))


def test_cross_check_against_numpy_fft():
    rng = np.random.default_rng(53)
    x = _random_complex(rng, 4096)
    assert np.max(np.abs(fft(x) - np.fft.fft(x))) < 1e-10
    assert np.max(np.abs(ifft(x) - np.fft.ifft(x))) < 1e-12


@pytest.mark.parametrize("transform", [fft, ifft])
def test_out_arrays_give_the_same_bits(transform):
    # into a fresh array, into rows with a gap between them, and in place
    rng = np.random.default_rng(61)
    x = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    expected = transform(x)
    rows = np.full((3, 20), np.nan + 0j)
    assert transform(x, out=rows[:, 4:]) is not None
    assert np.array_equal(rows[:, 4:], expected)
    assert np.isnan(rows[:, :4]).all()
    inplace = x.copy()
    assert transform(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, expected)
    assert np.array_equal(transform(x, out=np.empty_like(x)), expected)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# every power of two up to 4096, the N = 1 identity included
_ALL_LENGTHS = [2**p for p in range(13)]


@pytest.mark.parametrize("n", _ALL_LENGTHS)
@pytest.mark.parametrize("transform", [fft, ifft])
def test_in_place_call_gives_the_out_of_place_bits(transform, n):
    rng = np.random.default_rng(200 + n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    expected = transform(x)
    inplace = x.copy()
    assert transform(inplace, out=inplace) is inplace
    assert _same_bits(inplace, expected)


@pytest.mark.parametrize("n", _ALL_LENGTHS)
@pytest.mark.parametrize("transform", [fft, ifft])
def test_cp_stripped_row_view_is_read_in_place(transform, n):
    cp = max(1, n // 8)
    rng = np.random.default_rng(300 + n)
    rows = rng.standard_normal((4, cp + n)) + 1j * rng.standard_normal((4, cp + n))
    before = rows.copy()
    assert _same_bits(transform(rows[:, cp:]), transform(np.ascontiguousarray(rows[:, cp:])))
    assert _same_bits(rows, before)


@pytest.mark.parametrize("n", _ALL_LENGTHS)
@pytest.mark.parametrize(("transform", "oracle", "bound"), [(fft, np.fft.fft, 1e-10), (ifft, np.fft.ifft, 1e-12)])
def test_out_overlapping_the_input_matches_numpy(transform, oracle, bound, n):
    rng = np.random.default_rng(400 + n)
    z = rng.standard_normal((3, 2 * n)) + 1j * rng.standard_normal((3, 2 * n))
    x, out = z[:, :n], z[:, n // 2 : n // 2 + n]
    expected = oracle(x)
    assert transform(x, out=out) is out
    assert np.max(np.abs(out - expected)) < bound


def test_warm_transform_allocates_under_one_grid():
    # a (10, 4096) CP-stripped view into out, as the demodulator calls it
    rng = np.random.default_rng(71)
    rows = rng.standard_normal((10, 4608)) + 1j * rng.standard_normal((10, 4608))
    out = np.empty((10, 4096), dtype=np.complex128)
    fft(rows[:, 512:], out=out)
    tracemalloc.start()
    try:
        fft(rows[:, 512:], out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes


def test_numpy_buffer_size_is_restored():
    size = np.setbufsize(1024)
    try:
        ifft(fft(np.arange(64, dtype=complex)))
        assert np.getbufsize() == 1024
    finally:
        np.setbufsize(size)
