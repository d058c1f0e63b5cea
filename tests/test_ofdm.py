import dataclasses
import math

import numpy as np
import pytest

from ofdmsim.channel import ChannelModel, apply_multipath
from ofdmsim.errors import (
    InvalidConfiguration,
    LengthMismatch,
    PilotCountExceedsN,
    SingularChannelGain,
)
from ofdmsim.modem import build_constellation, demap_symbols, map_bits
from ofdmsim.numerics import seeded_stream
from ofdmsim.ofdm import (
    OfdmConfig,
    allocate_subcarriers,
    build_frequency_symbol,
    channel_frequency_response,
    equalize,
    extract_data,
    ofdm_demodulate,
    ofdm_modulate,
)
from ofdmsim.transform import fft, ifft


def test_config_defaults_match_table():
    for n, pilots in ((256, 32), (512, 64), (4096, 512)):
        cfg = OfdmConfig(n_subchannels=n)
        assert cfg.pilot_count == pilots
        assert cfg.cp_len == n // 8


def test_config_validation():
    with pytest.raises(InvalidConfiguration):
        OfdmConfig(n_subchannels=100)
    with pytest.raises(InvalidConfiguration):
        OfdmConfig(n_subchannels=256, cp_len=256)
    with pytest.raises(InvalidConfiguration):
        OfdmConfig(n_subchannels=256, cp_len=-1)
    with pytest.raises(PilotCountExceedsN):
        OfdmConfig(n_subchannels=256, pilot_count=256)
    with pytest.raises(InvalidConfiguration):
        OfdmConfig(n_subchannels=256, pilot_pattern="grid")


def test_block_pilots_take_no_pilot_count():
    for count in (0, 8):
        with pytest.raises(InvalidConfiguration):
            OfdmConfig(n_subchannels=64, pilot_pattern="block", pilot_count=count)
    cfg = OfdmConfig(n_subchannels=64, pilot_pattern="block")
    assert cfg.pilot_count is None and cfg.block_period == 8
    order16 = dataclasses.replace(cfg, mod_order=16)
    assert order16 == OfdmConfig(n_subchannels=64, pilot_pattern="block", mod_order=16)


def _one_symbol(cfg, symbol_index, rng):
    """The map of a one-symbol frame: its flat indices are bins 0..N-1."""
    return allocate_subcarriers(cfg, range(symbol_index, symbol_index + 1), [rng])


def test_comb_allocation_even_spacing():
    cfg = OfdmConfig(n_subchannels=256, pilot_pattern="comb", pilot_count=32)
    smap = _one_symbol(cfg, 0, seeded_stream(1, 0))
    assert np.array_equal(smap.pilot_indices, np.arange(0, 256, 8))
    assert smap.data_indices.size == 224
    # identical for every symbol index
    again = _one_symbol(cfg, 5, seeded_stream(1, 0))
    assert np.array_equal(again.pilot_indices, smap.pilot_indices)


def test_block_allocation_period():
    cfg = OfdmConfig(n_subchannels=64, pilot_pattern="block")
    rng = seeded_stream(2, 0)
    assert _one_symbol(cfg, 0, rng).pilot_indices.size == 64
    for j in range(1, 8):
        assert _one_symbol(cfg, j, rng).pilot_indices.size == 0
    assert _one_symbol(cfg, 8, rng).pilot_indices.size == 64


def test_random_allocation_deterministic_per_symbol():
    cfg = OfdmConfig(n_subchannels=128, pilot_pattern="random", pilot_count=16)
    rng = seeded_stream(9, 0)
    a = _one_symbol(cfg, 3, rng)
    b = _one_symbol(cfg, 3, seeded_stream(9, 0))
    assert np.array_equal(a.pilot_indices, b.pilot_indices)
    assert np.array_equal(a.pilot_values, b.pilot_values)
    c = _one_symbol(cfg, 4, rng)
    assert not np.array_equal(a.pilot_indices, c.pilot_indices)
    assert a.pilot_indices.size == 16
    assert np.all(np.diff(a.pilot_indices) > 0)


def test_pilot_values_are_unit_qpsk():
    cfg = OfdmConfig(n_subchannels=128, pilot_pattern="random", pilot_count=16)
    smap = _one_symbol(cfg, 0, seeded_stream(4, 0))
    assert np.allclose(np.abs(smap.pilot_values), 1.0, atol=1e-12)
    assert np.allclose(np.abs(smap.pilot_values.real), 1 / math.sqrt(2), atol=1e-12)


def test_zero_pilots_all_data():
    cfg = OfdmConfig(n_subchannels=64, pilot_count=0)
    smap = _one_symbol(cfg, 0, seeded_stream(1, 0))
    assert smap.pilot_indices.size == 0
    assert np.array_equal(smap.data_indices, np.arange(64))


def test_pilot_data_partition():
    for pattern in ("block", "comb", "random"):
        cfg = OfdmConfig(n_subchannels=128, pilot_pattern=pattern)
        for j in (0, 1, 2):
            smap = _one_symbol(cfg, j, seeded_stream(6, 1))
            merged = np.concatenate([smap.pilot_indices, smap.data_indices])
            assert np.array_equal(np.sort(merged), np.arange(128))


@pytest.mark.parametrize(
    "pattern, pilot_count", [("block", None), ("comb", 8), ("comb", 0), ("random", 8), ("random", 0)]
)
def test_frame_allocation_rows_match_single_symbol_calls(pattern, pilot_count):
    cfg = OfdmConfig(n_subchannels=32, pilot_pattern=pattern, pilot_count=pilot_count)
    streams = [seeded_stream(8, i).child(3) for i in range(3)]
    symbols = range(6, 11)
    fmap = allocate_subcarriers(cfg, symbols, streams)
    rows = [_one_symbol(cfg, j, s) for s in streams for j in symbols]
    pilot_row = fmap.pilot_indices // 32
    for r, smap in enumerate(rows):
        assert np.array_equal(fmap.pilot_indices[pilot_row == r] % 32, smap.pilot_indices)
        assert np.array_equal(fmap.data_indices[fmap.data_indices // 32 == r] % 32, smap.data_indices)
        assert np.array_equal(fmap.pilot_values[pilot_row == r], smap.pilot_values)
    merged = np.sort(np.concatenate([fmap.pilot_indices, fmap.data_indices]))
    assert np.array_equal(merged, np.arange(len(rows) * 32))


def test_build_and_extract_roundtrip():
    cfg = OfdmConfig(n_subchannels=4, pilot_count=1, pilot_pattern="comb", cp_len=1)
    smap = _one_symbol(cfg, 0, seeded_stream(3, 0))
    assert np.array_equal(smap.pilot_indices, [0])
    data = np.array([1 + 1j, 2.0, 3 - 1j])
    freq = build_frequency_symbol(data, smap, cfg)
    assert freq.shape == (1, 4)
    assert freq[0, 0] == smap.pilot_values[0]
    assert np.array_equal(freq[0, 1:], data)
    assert np.array_equal(extract_data(freq, smap), data)


def test_build_length_mismatch():
    cfg = OfdmConfig(n_subchannels=8, pilot_count=2, cp_len=1)
    smap = _one_symbol(cfg, 0, seeded_stream(1, 0))
    with pytest.raises(LengthMismatch):
        build_frequency_symbol(np.zeros(3, dtype=complex), smap, cfg)


def test_extract_from_a_grid_the_map_does_not_cover():
    cfg = OfdmConfig(n_subchannels=8, pilot_count=2, cp_len=1)
    smap = _one_symbol(cfg, 0, seeded_stream(1, 0))
    with pytest.raises(LengthMismatch):
        extract_data(np.zeros((1, 4), dtype=complex), smap)
    with pytest.raises(LengthMismatch):
        extract_data(np.zeros((2, 8), dtype=complex), smap)


def test_build_into_an_out_it_cannot_fill_in_place():
    # a grid written through a copy would be lost, so such an out is refused
    cfg = OfdmConfig(n_subchannels=8, pilot_count=2, cp_len=1)
    smap = allocate_subcarriers(cfg, range(2), [seeded_stream(1, 0)])
    data = np.arange(12) + 1j
    expected = build_frequency_symbol(data, smap, cfg)
    for out in (np.zeros((2, 9), dtype=complex)[:, :8], np.zeros((3, 8), dtype=complex)):
        with pytest.raises(ValueError):
            build_frequency_symbol(data, smap, cfg, out=out)
    for out in (np.zeros((2, 8), dtype=complex), np.zeros((2, 16), dtype=complex)[:, ::2]):
        assert build_frequency_symbol(data, smap, cfg, out=out) is out
        assert np.array_equal(out, expected)


def test_all_pilot_symbol_has_no_data():
    cfg = OfdmConfig(n_subchannels=16, pilot_pattern="block", cp_len=2)
    smap = _one_symbol(cfg, 0, seeded_stream(1, 0))
    freq = build_frequency_symbol(np.array([], dtype=complex), smap, cfg)
    assert np.array_equal(freq[0], smap.pilot_values)
    assert extract_data(freq, smap).size == 0


def test_modulate_appends_verbatim_cyclic_prefix():
    cfg = OfdmConfig(n_subchannels=8, cp_len=2, pilot_count=0)
    rng = np.random.default_rng(0)
    freq = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    out = ofdm_modulate(freq, cfg)
    time = ifft(freq)
    assert out.size == 10
    # direct construction oracle: last cp_len samples prepended, bit-for-bit
    assert np.array_equal(out, np.concatenate([time[-2:], time]))
    assert np.array_equal(out[:2], out[8:10])


def test_modulate_zero_cp():
    cfg = OfdmConfig(n_subchannels=16, cp_len=0, pilot_count=0)
    freq = np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.array_equal(ofdm_modulate(freq, cfg), ifft(freq))


def test_modulate_tone_is_periodic():
    cfg = OfdmConfig(n_subchannels=32, cp_len=4, pilot_count=0)
    freq = np.zeros(32, dtype=complex)
    freq[3] = 1.0
    out = ofdm_modulate(freq, cfg)
    for i in range(4):
        assert out[i] == out[i + 32]


def test_modulate_length_mismatch():
    cfg = OfdmConfig(n_subchannels=16, cp_len=2)
    with pytest.raises(LengthMismatch):
        ofdm_modulate(np.zeros(8, dtype=complex), cfg)
    with pytest.raises(LengthMismatch):
        ofdm_demodulate(np.zeros(16, dtype=complex), cfg)


def test_demodulate_inverts_modulate():
    cfg = OfdmConfig(n_subchannels=64, cp_len=8, pilot_count=0)
    rng = np.random.default_rng(5)
    freq = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    back = ofdm_demodulate(ofdm_modulate(freq, cfg), cfg)
    assert np.max(np.abs(back - freq)) < 1e-12


def test_demodulate_zero_cp_is_plain_fft():
    cfg = OfdmConfig(n_subchannels=32, cp_len=0, pilot_count=0)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.array_equal(ofdm_demodulate(x, cfg), fft(x))


def test_cyclic_delay_inside_cp_gives_phase_ramp():
    # circular-shift theorem oracle for a delay absorbed by the CP
    cfg = OfdmConfig(n_subchannels=64, cp_len=8, pilot_count=0)
    rng = np.random.default_rng(7)
    freq = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    tx = ofdm_modulate(freq, cfg)
    d = 5
    delayed = np.roll(tx, d)
    back = ofdm_demodulate(delayed, cfg)
    expected = freq * np.exp(-2j * np.pi * np.arange(64) * d / 64)
    assert np.max(np.abs(back - expected)) < 1e-10


def test_channel_frequency_response_examples():
    ch0 = ChannelModel(((1.0, 0),))
    assert np.allclose(channel_frequency_response(ch0, 8), np.ones(8), atol=1e-15)
    ch1 = ChannelModel(((1.0, 1),))
    assert np.allclose(channel_frequency_response(ch1, 4), [1, -1j, -1, 1j], atol=1e-12)
    ch2 = ChannelModel(((1.0, 0), (0.5, 2)))
    impulse = np.zeros(8, dtype=complex)
    impulse[0], impulse[2] = 1.0, 0.5
    assert np.max(np.abs(channel_frequency_response(ch2, 8) - fft(impulse))) < 1e-12


def test_equalize_identity_and_inverse():
    rng = np.random.default_rng(8)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    ones = np.ones(16, dtype=complex)
    assert np.array_equal(equalize(f, ones), f)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    h[np.abs(h) < 0.1] += 0.5
    assert np.max(np.abs(equalize(f * h, h) - f)) < 1e-12


def test_equalize_checks_only_used_subcarriers():
    # the caller gathers the used bins of both the grid and the response
    f = np.ones(4, dtype=complex)
    h = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex)
    used = np.array([0, 2, 3])
    out = equalize(f[used], h[used])
    assert np.array_equal(out, np.ones(3, dtype=complex))
    assert f[1] == 1.0  # untouched
    with pytest.raises(SingularChannelGain):
        equalize(f, h)
    with pytest.raises(SingularChannelGain):
        equalize(f[[1]], h[[1]])
    with pytest.raises(LengthMismatch):
        equalize(f, np.ones(5, dtype=complex))


def test_extract_data_examples():
    cfg = OfdmConfig(n_subchannels=4, pilot_count=2, pilot_pattern="comb", cp_len=1)
    smap = _one_symbol(cfg, 0, seeded_stream(2, 0))
    assert np.array_equal(smap.pilot_indices, [0, 2])
    freq = np.array([10.0, 11.0, 12.0, 13.0], dtype=complex)
    assert np.array_equal(extract_data(freq, smap), [11.0, 13.0])


def _chain_once(cfg, channel, n_symbols, seed):
    """Noiseless multipath chain over consecutive symbols; returns bit errors."""
    const = build_constellation(cfg.mod_order)
    rng = seeded_stream(seed, 0)
    h = channel_frequency_response(channel, cfg.n_subchannels)
    smap = allocate_subcarriers(cfg, range(n_symbols), [rng.child(1)])
    bits = rng.child(2).bits(const.bits_per_symbol * smap.data_indices.size)
    grid = build_frequency_symbol(map_bits(bits, const), smap, cfg)
    tx = ofdm_modulate(grid, cfg).ravel()
    rx = apply_multipath(tx, channel)
    fgrid = ofdm_demodulate(rx.reshape(n_symbols, cfg.samples_per_symbol), cfg)
    h_data = h[smap.data_indices % cfg.n_subchannels]
    rx_bits = demap_symbols(equalize(extract_data(fgrid, smap), h_data), const)
    return int(np.count_nonzero(rx_bits != bits)), bits.size


@pytest.mark.parametrize("pattern", ["block", "comb", "random"])
@pytest.mark.parametrize("order", [4, 8, 16])
def test_noiseless_identity_channel_end_to_end(pattern, order):
    cfg = OfdmConfig(n_subchannels=256, pilot_pattern=pattern, mod_order=order)
    errors, bits = _chain_once(cfg, ChannelModel.identity(), 12, seed=order)
    assert bits > 0
    assert errors == 0


def test_cp_sufficiency_and_violation():
    # delays within the CP keep the equalized link exact; one delay beyond
    # the CP breaks subcarrier orthogonality and produces bit errors
    good = ChannelModel(((1.0, 0), (0.5 * np.exp(1j * np.pi / 4), 3)))
    bad = ChannelModel(((1.0, 0), (0.5 * np.exp(1j * np.pi / 4), 36)))
    cfg = OfdmConfig(n_subchannels=256, cp_len=32, mod_order=16)
    errors_good, bits = _chain_once(cfg, good, 50, seed=3)
    errors_bad, _ = _chain_once(cfg, bad, 50, seed=3)
    assert bits > 0
    assert errors_good == 0
    assert errors_bad > 0


def test_circular_convolution_equivalence():
    # one CP-prefixed symbol through an in-CP multipath channel equals
    # pointwise H[k] * a_k after demodulation
    cfg = OfdmConfig(n_subchannels=128, cp_len=16, pilot_count=0)
    channel = ChannelModel(((0.8, 0), (0.4 + 0.2j, 5), (0.1j, 16)))
    rng = np.random.default_rng(11)
    freq = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    tx = ofdm_modulate(freq, cfg)
    rx = apply_multipath(tx, channel)
    back = ofdm_demodulate(rx, cfg)
    h = channel_frequency_response(channel, 128)
    assert np.max(np.abs(back - h * freq)) < 1e-10
