"""Exact BER reference for the benchmark's correctness check.

For a static channel whose delays fit inside the cyclic prefix, with known
channel state at the receiver, subcarrier k sees AWGN at Es/N0 = |H_k|^2 * snr.
The expected bit error rate of a point is therefore the mean over data bins of
the exact Gray-coded BER of rectangular I x J QAM (Cho & Yoon, "On the
general BER expression of one- and two-dimensional amplitude modulations",
IEEE Trans. Commun. 50(7), 2002), evaluated at that per-bin SNR.
"""

from __future__ import annotations

import math

import numpy as np

from ofdmsim import OfdmConfig, SweepSpec, channel_frequency_response, q_function

# (in-phase levels I, quadrature levels J) of the modem's rectangular grids
AXIS_LEVELS = {4: (2, 2), 8: (4, 2), 16: (4, 4)}

# Acceptance band |errors - mean| <= Z_BOUND * sigma + SLACK_ERRORS with the
# binomial sigma. Across the three workloads the measured z-scores have a
# standard deviation near 0.9, so a false rejection at 6 sigma is below 1e-8
# per point; the slack covers points whose expected count is below one error.
Z_BOUND = 6.0
SLACK_ERRORS = 4.0


def _erfc(x: float) -> float:
    return 2.0 * q_function(math.sqrt(2.0) * x)


def _axis_bit_errors(levels: int, arg: float) -> float:
    """Sum over the axis's Gray bits of P(bit k wrong), Cho & Yoon eq. (14)."""
    total = 0.0
    for k in range(1, int(math.log2(levels)) + 1):
        half = 1 << (k - 1)
        acc = 0.0
        for i in range(int((1.0 - 2.0**-k) * levels)):
            w = (-1) ** (i * half // levels) * (half - math.floor(i * half / levels + 0.5))
            acc += w * _erfc((2 * i + 1) * arg)
        total += acc / levels
    return total


def qam_ber(order: int, es_n0: float) -> float:
    """Exact Gray BER of the unit-energy I x J QAM grid at linear Es/N0."""
    i_lv, j_lv = AXIS_LEVELS[order]
    arg = math.sqrt(3.0 * es_n0 / (i_lv * i_lv + j_lv * j_lv - 2))
    return (_axis_bit_errors(i_lv, arg) + _axis_bit_errors(j_lv, arg)) / math.log2(order)


def point_reference(cfg: OfdmConfig, channel, snr_db: float) -> float:
    """mean_k P_b(|H_k|^2 * snr) over the bins that carry data.

    Block pilots fill whole symbols and leave every bin of a data symbol to
    data; random pilots give every bin data equally often, so the mean over
    all bins is the expectation. Comb pilots sit at round(i * N / count).
    """
    gains = np.abs(channel_frequency_response(channel, cfg.n_subchannels)) ** 2
    if cfg.pilot_pattern == "comb":
        n, count = cfg.n_subchannels, cfg.pilot_count
        mask = np.ones(n, dtype=bool)
        mask[[round(i * n / count) for i in range(count)]] = False
        gains = gains[mask]
    snr = 10.0 ** (snr_db / 10.0)
    values, counts = np.unique(gains, return_counts=True)
    return float(np.dot(counts, [qam_ber(cfg.mod_order, g * snr) for g in values]) / gains.size)


def expected_bits(spec: SweepSpec) -> int:
    """Data bits one point carries: iterations x data bins x bits per symbol."""
    cfg = spec.cfg
    n, s = cfg.n_subchannels, spec.symbols_per_iteration
    if cfg.pilot_pattern == "block":
        data_bins = n * sum(1 for j in range(s) if j % cfg.block_period)
    else:
        data_bins = (n - cfg.pilot_count) * s
    return spec.iterations * data_bins * int(math.log2(cfg.mod_order))


def within_z_bound(errors: int, bits: int, ber: float) -> bool:
    """True when a point's error count is consistent with reference BER `ber`."""
    sigma = math.sqrt(bits * ber * (1.0 - ber))
    return abs(errors - bits * ber) <= Z_BOUND * sigma + SLACK_ERRORS
