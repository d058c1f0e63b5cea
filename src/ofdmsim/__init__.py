"""Baseband OFDM physical-layer simulator.

Gray-coded QAM (orders 4, 8, 16) over an N-subcarrier OFDM link with cyclic
prefix, pilot allocation, multipath + AWGN channel, and a Monte Carlo BER
sweep harness with analytic references.
"""

__version__ = "0.1.0"

from . import errors
from .channel import (
    ChannelModel,
    add_awgn,
    apply_multipath,
    load_channel_profile,
    signal_power,
)
from .harness import (
    BerPoint,
    SweepResult,
    SweepSpec,
    analytic_ber,
    eb_n0_db_for_snr,
    eb_n0_offset_db,
    run_ber_point,
    run_sweep,
    single_carrier_ber_counts,
    snr_db_for_eb_n0,
    snr_grid,
    write_csv,
)
from .modem import (
    Constellation,
    build_constellation,
    demap_symbols,
    map_bits,
    write_constellation_csv,
)
from .numerics import RngStream, gaussian_pair, q_function, seeded_stream
from .ofdm import (
    OfdmConfig,
    SubcarrierMap,
    allocate_subcarriers,
    build_frequency_symbol,
    channel_frequency_response,
    equalize,
    extract_data,
    ofdm_demodulate,
    ofdm_modulate,
)
from .transform import fft, ifft

__all__ = [
    "__version__",
    "errors",
    "RngStream",
    "seeded_stream",
    "gaussian_pair",
    "q_function",
    "fft",
    "ifft",
    "Constellation",
    "build_constellation",
    "map_bits",
    "demap_symbols",
    "write_constellation_csv",
    "OfdmConfig",
    "SubcarrierMap",
    "allocate_subcarriers",
    "build_frequency_symbol",
    "ofdm_modulate",
    "ofdm_demodulate",
    "channel_frequency_response",
    "equalize",
    "extract_data",
    "ChannelModel",
    "apply_multipath",
    "signal_power",
    "add_awgn",
    "load_channel_profile",
    "SweepSpec",
    "BerPoint",
    "SweepResult",
    "run_ber_point",
    "run_sweep",
    "snr_grid",
    "analytic_ber",
    "write_csv",
    "eb_n0_offset_db",
    "eb_n0_db_for_snr",
    "snr_db_for_eb_n0",
    "single_carrier_ber_counts",
]
