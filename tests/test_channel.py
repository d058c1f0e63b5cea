import math

import numpy as np
import pytest

from ofdmsim.channel import (
    ChannelModel,
    add_awgn,
    apply_multipath,
    load_channel_profile,
    signal_power,
)
from ofdmsim.errors import EmptyInput, InvalidConfiguration, NonPositiveRefPower
from ofdmsim.numerics import seeded_stream


def brute_force_fir(x, taps):
    """Textbook linear convolution oracle, truncated to the block length."""
    y = np.zeros(len(x), dtype=complex)
    for n in range(len(x)):
        for gain, delay in taps:
            if n - delay >= 0:
                y[n] += gain * x[n - delay]
    return y


def test_channel_model_validation():
    with pytest.raises(InvalidConfiguration):
        ChannelModel(())
    with pytest.raises(InvalidConfiguration):
        ChannelModel(((1.0, -1),))
    with pytest.raises(InvalidConfiguration):
        ChannelModel(((1.0, 0), (0.5, 0)))


def test_taps_sorted_by_delay():
    ch = ChannelModel(((0.5, 4), (1.0, 0), (0.25j, 2)))
    assert [d for _, d in ch.taps] == [0, 2, 4]
    assert ch.max_delay == 4


def test_identity_channel_passthrough():
    x = np.arange(8, dtype=complex) + 1j
    ch = ChannelModel.identity()
    y = apply_multipath(x, ch)
    assert np.array_equal(y, x)


def test_delayed_scaled_impulse():
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    ch = ChannelModel(((0.5, 2),))
    y = apply_multipath(x, ch)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 0.5
    assert np.array_equal(y, expected)


def test_two_tap_hand_convolution():
    ch = ChannelModel(((1.0, 0), (0.5, 1)))
    x = np.array([1, 1, 0, 0], dtype=complex)
    y = apply_multipath(x, ch)
    assert np.allclose(y, [1.0, 1.5, 0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("n", [3, 16, 64])
def test_fresh_state_equals_linear_convolution(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = ((0.9 - 0.2j, 0), (0.4 + 0.1j, 2), (-0.3j, 5))
    ch = ChannelModel(taps)
    y = apply_multipath(x, ch)
    assert np.max(np.abs(y - brute_force_fir(x, taps))) < 1e-12


def test_rows_filter_independently_and_bitwise_like_one_row_calls():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((5, 200)) + 1j * rng.standard_normal((5, 200))
    x[2] = 0.0
    ch = ChannelModel(((1.0, 0), (0.5 + 0.5j, 3), (0.2, 7)))
    y = apply_multipath(x, ch)
    assert y.shape == x.shape
    for row in range(x.shape[0]):
        assert y[row].tobytes() == apply_multipath(x[row], ch).tobytes()


@pytest.mark.parametrize("delay", [8, 9, 100])
def test_tap_at_or_past_row_length_adds_nothing(delay):
    rng = np.random.default_rng(delay)
    x = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    direct = ChannelModel(((0.9 - 0.2j, 0), (0.4j, 2)))
    late = ChannelModel(direct.taps + ((0.7 + 0.1j, delay),))
    assert apply_multipath(x, late).tobytes() == apply_multipath(x, direct).tobytes()


def test_signal_power_examples():
    assert signal_power(np.ones(10, dtype=complex)) == 1.0
    assert signal_power(np.zeros(5, dtype=complex)) == 0.0
    with pytest.raises(EmptyInput):
        signal_power(np.array([]))


def test_signal_power_per_row_equals_one_row_calls():
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (4, 7), (3, 4096), (2, 5, 33)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        power = signal_power(x)
        assert power.shape == shape[:-1]
        rows = x.reshape(-1, shape[-1])
        assert power.ravel().tolist() == [signal_power(r) for r in rows]


def test_signal_power_parseval_bookkeeping():
    # unit-energy subcarriers through the 1/N-scaled synthesis put 1/N
    # power in each time sample
    from ofdmsim.transform import ifft

    rng = seeded_stream(3, 2)
    n = 256
    u = rng.uniforms(n)
    freq = np.exp(2j * np.pi * u)  # unit magnitude symbols
    time = ifft(freq)
    direct = np.sum(np.abs(freq) ** 2) / n**2
    assert abs(signal_power(time) - direct) < 1e-14
    assert abs(signal_power(time) - 1.0 / n) < 1e-12


def test_awgn_zero_noise_flag():
    x = np.arange(10, dtype=complex)
    y = add_awgn(x, math.inf, 1.0, seeded_stream(1, 0))
    assert np.array_equal(y, x)


@pytest.mark.parametrize("snr_db,expected_power", [(0.0, 1.0), (10.0, 0.1)])
def test_awgn_noise_power(snr_db, expected_power):
    n = 1_000_000
    x = np.zeros(n, dtype=complex)
    noise = add_awgn(x, snr_db, 1.0, seeded_stream(100, int(snr_db)))
    measured = signal_power(noise)
    assert abs(measured - expected_power) / expected_power < 0.01


@pytest.mark.parametrize("snr_db", [0.0, 9.0, 18.0, 27.0])
def test_awgn_calibration_within_tenth_db(snr_db):
    n = 1_000_000
    rng = seeded_stream(55, int(snr_db))
    x = np.ones(n, dtype=complex)
    y = add_awgn(x, snr_db, signal_power(x), rng)
    noise_power = signal_power(y - x)
    measured_db = 10 * math.log10(1.0 / noise_power)
    assert abs(measured_db - snr_db) < 0.1


def test_awgn_rejects_bad_ref_power():
    with pytest.raises(NonPositiveRefPower):
        add_awgn(np.ones(4, dtype=complex), 10.0, 0.0, seeded_stream(1, 0))


@pytest.mark.parametrize("snr_db", [3.0, math.inf])
def test_awgn_into_out_matches_a_fresh_array(snr_db):
    x = (np.arange(24.0) + 1j).reshape(2, 12)
    expected = add_awgn(x, snr_db, 1.0, seeded_stream(5))
    out = np.full((2, 12), np.nan + 0j)
    assert add_awgn(x, snr_db, 1.0, seeded_stream(5), out=out) is out
    assert np.array_equal(out, expected)
    transposed = add_awgn(x.T, snr_db, 1.0, seeded_stream(5))
    assert np.array_equal(transposed, add_awgn(x.T.copy(), snr_db, 1.0, seeded_stream(5)))
    gapped = np.empty((2, 13), dtype=complex)[:, :12]
    if math.isinf(snr_db):
        assert np.array_equal(add_awgn(x, snr_db, 1.0, seeded_stream(5), out=gapped), x)
    else:
        with pytest.raises(ValueError):  # noise written through a copy would be lost
            add_awgn(x, snr_db, 1.0, seeded_stream(5), out=gapped)


def test_load_channel_profile(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(
        "# two-tap channel\n"
        "0 1.0 0.0\n"
        "\n"
        "3 0.35 -0.35   # echo\n"
    )
    ch = load_channel_profile(path)
    assert ch.taps == ((1 + 0j, 0), (0.35 - 0.35j, 3))


def test_load_channel_profile_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0\n")
    with pytest.raises(InvalidConfiguration):
        load_channel_profile(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidConfiguration):
        load_channel_profile(empty)
