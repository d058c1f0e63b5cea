"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time

import numpy as np

from ofdmsim.channel import ChannelModel
from ofdmsim.harness import (
    SweepSpec,
    analytic_ber,
    run_ber_point,
    run_sweep,
    snr_db_for_eb_n0,
    write_csv,
)
from ofdmsim.numerics import q_function, seeded_stream
from ofdmsim.ofdm import OfdmConfig
from ofdmsim.transform import fft, ifft
from ofdmsim.channel import add_awgn, signal_power

import io


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_noiseless_end_to_end_exactness():
    t0 = time.perf_counter()
    failures = []
    total_bits = 0
    for n in (256, 512, 4096):
        for order in (4, 8, 16):
            k = order.bit_length() - 1
            for pattern in ("block", "comb", "random"):
                cfg = OfdmConfig(n_subchannels=n, mod_order=order, pilot_pattern=pattern)
                if pattern == "block":
                    bits_per_iter = k * 8 * n  # 8 of 10 frame symbols carry data
                else:
                    bits_per_iter = k * 10 * (n - cfg.pilot_count)
                iterations = -(-100_000 // bits_per_iter)
                spec = SweepSpec(cfg=cfg, iterations=iterations)
                pt = run_ber_point(spec, math.inf)
                total_bits += pt.bits_total
                if pt.bit_errors != 0 or pt.bits_total < 100_000:
                    failures.append((n, order, pattern, pt.bit_errors, pt.bits_total))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        "C1 noiseless end-to-end exactness",
        ok,
        f"27 configs, {total_bits} bits, failures={failures}, {elapsed:.1f}s < 30s",
    )


def test_c2_fft_correctness():
    rng = np.random.default_rng(2)
    worst_rt = 0.0
    for p in range(1, 13):
        n = 2**p
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst_rt = max(worst_rt, float(np.max(np.abs(ifft(fft(x)) - x))))
    worst_dft = 0.0
    for n in (4, 8, 16, 32, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k = np.arange(n)
        oracle = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
        worst_dft = max(worst_dft, float(np.max(np.abs(fft(x) - oracle))))
    ok = worst_rt < 1e-12 and worst_dft < 1e-10
    _report(
        "C2 FFT correctness",
        ok,
        f"roundtrip max err {worst_rt:.2e} < 1e-12, DFT oracle max err {worst_dft:.2e} < 1e-10",
    )


def test_c3_cp_multipath_invariant():
    t0 = time.perf_counter()
    tap2 = 0.5 * np.exp(1j * np.pi / 4)
    cfg = OfdmConfig(n_subchannels=256, cp_len=32, mod_order=16)
    within = SweepSpec(
        cfg=cfg, iterations=20, channel=ChannelModel(((1.0, 0), (tap2, 3)))
    )
    beyond = SweepSpec(
        cfg=cfg, iterations=20, channel=ChannelModel(((1.0, 0), (tap2, 36)))
    )
    pt_ok = run_ber_point(within, math.inf)
    pt_bad = run_ber_point(beyond, math.inf)
    elapsed = time.perf_counter() - t0
    ok = pt_ok.bit_errors == 0 and pt_bad.bit_errors > 0 and elapsed < 5.0
    _report(
        "C3 CP/multipath invariant",
        ok,
        f"delay 3: {pt_ok.bit_errors} errors; delay cp+4: {pt_bad.bit_errors} errors"
        f" over {pt_bad.bits_total} bits, {elapsed:.1f}s < 5s",
    )


def test_c4_awgn_calibration():
    t0 = time.perf_counter()
    n = 1_000_000
    worst = 0.0
    for snr_db in (0.0, 9.0, 18.0, 27.0):
        rng = seeded_stream(404, int(snr_db))
        x = np.ones(n, dtype=complex)
        y = add_awgn(x, snr_db, signal_power(x), rng)
        measured = 10 * math.log10(1.0 / signal_power(y - x))
        worst = max(worst, abs(measured - snr_db))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.1 and elapsed < 5.0
    _report(
        "C4 AWGN calibration",
        ok,
        f"max |commanded - measured| = {worst:.3f} dB < 0.1 dB over 1e6 samples, {elapsed:.1f}s < 5s",
    )


def test_c5_analytic_ber_match_order4():
    t0 = time.perf_counter()
    cfg = OfdmConfig(n_subchannels=256, mod_order=4, pilot_count=0)
    details = []
    ok = True
    for eb in (0.0, 2.0, 4.0, 6.0, 8.0):
        spec = SweepSpec(cfg=cfg, iterations=200)  # 200*10*512 = 1.024e6 bits
        pt = run_ber_point(spec, snr_db_for_eb_n0(eb, cfg))
        expected = q_function(math.sqrt(2 * 10 ** (eb / 10)))
        sigma = math.sqrt(expected * (1 - expected) / pt.bits_total)
        pulls = abs(pt.ber - expected) / sigma
        details.append(f"{eb:g}dB:{pulls:.1f}sigma")
        ok = ok and pt.bits_total >= 1_000_000 and pulls <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "C5 analytic BER match (order 4)",
        ok,
        f"Q(sqrt(2*gamma_b)) pulls: {', '.join(details)}; {elapsed:.1f}s < 60s",
    )


def test_c6_analytic_ber_match_order16():
    t0 = time.perf_counter()
    cfg = OfdmConfig(n_subchannels=256, mod_order=16, pilot_count=0)
    details = []
    ok = True
    for eb in (8.0, 10.0, 12.0):
        iterations = 200 if eb < 12 else 400  # keep >=40 expected errors
        spec = SweepSpec(cfg=cfg, iterations=iterations)
        pt = run_ber_point(spec, snr_db_for_eb_n0(eb, cfg))
        expected = analytic_ber(16, eb)
        sigma = math.sqrt(expected * (1 - expected) / pt.bits_total)
        pulls = abs(pt.ber - expected) / sigma
        details.append(f"{eb:g}dB:{pulls:.1f}sigma")
        ok = ok and pulls <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "C6 analytic BER match (order 16)",
        ok,
        f"0.75*Q(sqrt(0.8*gamma_b)) pulls: {', '.join(details)}; {elapsed:.1f}s < 60s",
    )


def test_c7_order8_single_carrier_equivalence(reference):
    t0 = time.perf_counter()
    cfg = OfdmConfig(n_subchannels=256, mod_order=8, pilot_count=0)
    details = []
    ok = True
    for eb in (6.0, 9.0, 12.0):
        iterations = 150 if eb < 12 else 500
        spec = SweepSpec(cfg=cfg, iterations=iterations)
        snr_db = snr_db_for_eb_n0(eb, cfg)
        pt = run_ber_point(spec, snr_db)
        expected = reference.point_reference(cfg, ChannelModel.identity(), snr_db)
        sigma = math.sqrt(expected * (1 - expected) / pt.bits_total)
        pulls = abs(pt.ber - expected) / sigma
        details.append(f"{eb:g}dB:{pulls:.1f}sigma")
        ok = ok and pulls <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "C7 order-8 oracle equivalence",
        ok,
        f"OFDM vs exact single-carrier BER pulls: {', '.join(details)}; {elapsed:.1f}s < 60s",
    )


def test_c8_order_dominance_across_default_sweeps():
    t0 = time.perf_counter()
    violations = []
    for n in (256, 512, 4096):
        points = {}
        for order in (4, 8, 16):
            cfg = OfdmConfig(n_subchannels=n, mod_order=order)
            points[order] = run_sweep(SweepSpec(cfg=cfg)).points
        for lo, hi in ((4, 8), (8, 16)):
            for p_lo, p_hi in zip(points[lo], points[hi]):
                sigma = math.sqrt(p_lo.stderr_est**2 + p_hi.stderr_est**2)
                if p_lo.ber > p_hi.ber + 3 * sigma:
                    violations.append((n, lo, hi, p_lo.snr_db, p_lo.ber, p_hi.ber))
    elapsed = time.perf_counter() - t0
    ok = not violations
    _report(
        "C8 qualitative order dominance (default 0-27 dB sweeps)",
        ok,
        f"BER(4) <= BER(8) <= BER(16) at every grid SNR for N in {{256,512,4096}},"
        f" violations={violations}, {elapsed:.0f}s",
    )


def test_c9_determinism_bitwise_csv():
    spec = SweepSpec(
        cfg=OfdmConfig(n_subchannels=256, mod_order=16),
        iterations=6,
        snr_stop_db=9.0,
    )
    outputs = []
    for workers in (1, 1, 2):
        buf = io.StringIO()
        write_csv(run_sweep(spec, workers=workers), buf)
        outputs.append(buf.getvalue().encode())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        "C9 determinism (bitwise CSV, sequential and parallel)",
        ok,
        f"3 runs, {len(outputs[0])} bytes each, identical={ok}",
    )
