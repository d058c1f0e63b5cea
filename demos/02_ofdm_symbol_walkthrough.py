"""Follow one OFDM symbol through the whole transmit/receive chain.

bits -> QAM symbols -> subcarrier grid (pilots + data) -> IFFT + cyclic
prefix -> multipath channel -> FFT -> equalization -> data extraction ->
demapped bits. Every stage prints its shape and a small sample, ending
with an exact bit-for-bit recovery check.
"""

import numpy as np

from ofdmsim import (
    ChannelModel,
    OfdmConfig,
    allocate_subcarriers,
    apply_multipath,
    build_constellation,
    build_frequency_symbol,
    channel_frequency_response,
    demap_symbols,
    equalize,
    extract_data,
    map_bits,
    ofdm_demodulate,
    ofdm_modulate,
    seeded_stream,
)

cfg = OfdmConfig(n_subchannels=64, cp_len=8, pilot_pattern="comb", pilot_count=8, mod_order=16)
const = build_constellation(cfg.mod_order)
rng = seeded_stream(seed=2024, stream_id=0)

print(f"config: N={cfg.n_subchannels}, cp_len={cfg.cp_len}, "
      f"{cfg.pilot_count} comb pilots, order {cfg.mod_order}")

# a frame of one symbol (symbol index 0) drawn from one stream
smap = allocate_subcarriers(cfg, range(1), [rng])
print(f"pilot subcarriers: {smap.pilot_indices.tolist()}")
print(f"data subcarriers per symbol: {smap.data_indices.size}")

n_bits = const.bits_per_symbol * smap.data_indices.size
tx_bits = rng.child(1).bits(n_bits)
print(f"\ntransmitting {n_bits} bits, first 16: {tx_bits[:16].tolist()}")

data_syms = map_bits(tx_bits, const)
print(f"mapped to {data_syms.size} QAM symbols, first 3: {np.round(data_syms[:3], 3)}")

freq = build_frequency_symbol(data_syms, smap, cfg)
tx_time = ofdm_modulate(freq, cfg)
print(f"time-domain frame: shape {tx_time.shape} "
      f"(cyclic prefix repeats the last {cfg.cp_len} samples)")
print(f"prefix == tail: {np.array_equal(tx_time[:, :cfg.cp_len], tx_time[:, -cfg.cp_len:])}")

channel = ChannelModel(((0.9 + 0.1j, 0), (0.4 * np.exp(1j * 0.7), 3), (0.15j, 6)))
rx_time = apply_multipath(tx_time, channel)
taps_str = ", ".join(f"({complex(round(g.real, 3), round(g.imag, 3))}, {d})" for g, d in channel.taps)
print(f"\nchannel taps (gain, delay): {taps_str}")

rx_freq = ofdm_demodulate(rx_time, cfg)
h = channel_frequency_response(channel, cfg.n_subchannels)
print(f"per-subcarrier gains |H[k]| range: {np.abs(h).min():.3f} .. {np.abs(h).max():.3f}")

# flat data indices of the one-row grid are its bins
rx_syms = equalize(extract_data(rx_freq, smap), h[smap.data_indices])
residual = np.max(np.abs(rx_syms - data_syms))
print(f"max symbol error after equalization: {residual:.2e}")

rx_bits = demap_symbols(rx_syms, const)
errors = int(np.count_nonzero(rx_bits != tx_bits))
print(f"\nrecovered bits: {errors} errors out of {n_bits} -> "
      f"{'exact recovery' if errors == 0 else 'FAILED'}")
