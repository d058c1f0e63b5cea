"""Monte Carlo BER sweep engine with analytic references and CSV output.

Each Monte Carlo iteration transmits a frame of consecutive OFDM symbols
through multipath + AWGN and counts data-bit errors (pilot bits never enter
the accounting). Iteration i always uses random stream_id = i, and error
counts reduce by integer addition, so results are identical no matter how
iterations are scheduled across workers. Counts, not Gaussian bits, are the
contract: a float change moves a count only if it moves a decision input across
a slicer threshold. Every golden sweep's inputs keep over 1e-7 from one, and
tests/test_golden.py asserts 1e-9, against the ~3e-15 such changes move them;
for another seed the chance of flipping one of 1e8 decisions is below 1e-6.

SNR here is average transmitted time-domain signal power over per-sample
complex noise power; the companion Eb/N0 reported in results is
snr_db - 10*log10(bits_per_symbol * n_data/N).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel, add_awgn, apply_multipath, signal_power
from .errors import InvalidConfiguration, OfdmSimError, SingularChannelGain, int_field
from .modem import _write_lines, build_constellation, demap_symbols, map_bits
from .numerics import box_muller, q_function, seeded_stream, workspace
from .ofdm import (
    OfdmConfig,
    allocate_subcarriers,
    build_frequency_symbol,
    channel_frequency_response,
    data_bins,
    equalize,
    extract_data,
    ofdm_demodulate,
    ofdm_modulate,
    read_range,
)

# per-iteration child stream tags
_TAG_BITS = 1
_TAG_NOISE = 2
_TAG_ALLOC = 3

# Iterations run in chunks of about this many time samples. A chunk is one frame tensor, sent and given its unit
# noise once, then received at every SNR, so every stage and the chunk's set-up cost one call per chunk: 45
# iterations at N = 64 with 10 symbols, 11 at N = 256, one from N = 2048 up (BENCH_8.json). Below 46 080 samples
# an N = 4096 chunk stays one iteration. For the chunk shape of its last call each thread keeps three frame
# tensors and the unit noise (2 211 840 + 729 088 B at N = 4096, cp 512, 10 comb symbols).
_CHUNK_SAMPLES = 32_768

# Helper processes of each pid: a lock and its (process, pipe end) pairs. A
# forked child makes its own entry, so it never talks to its parent's helpers.
_helpers: dict[int, tuple[threading.Lock, list]] = {}
# each helper gets at least this many samples, summed over the SNRs: two helpers just break even on the smallest
# default sweep this sends them (N = 256, 2 iterations; BENCH_12.json). Not tied to _CHUNK_SAMPLES (BENCH_8.json)
_HELPER_MIN_SAMPLES = 16_384

# a longer SNR grid is a typo such as a 1e-300 dB step, not a sweep
MAX_SNR_POINTS = 10_000


@dataclass(frozen=True)
class SweepSpec:
    """Everything one BER sweep needs; defaults follow the standard setup
    (SNR 0..27 dB, 100 iterations, pure-AWGN single-tap channel)."""

    cfg: OfdmConfig
    snr_start_db: float = 0.0
    snr_stop_db: float = 27.0
    snr_step_db: float = 3.0
    iterations: int = 100
    symbols_per_iteration: int = 10
    seed: int = 1
    channel: ChannelModel = field(default_factory=ChannelModel.identity)

    def __post_init__(self):
        for name in ("iterations", "symbols_per_iteration", "seed"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        if not all(map(math.isfinite, (self.snr_start_db, self.snr_stop_db, self.snr_step_db))):
            raise InvalidConfiguration("snr_start_db, snr_stop_db and snr_step_db must be finite")
        _check_snr(self.snr_start_db)  # the lowest SNR of the grid, so the loudest noise
        if self.snr_start_db > self.snr_stop_db:
            raise InvalidConfiguration("snr_start_db must be <= snr_stop_db")
        if not self.snr_step_db > 0:
            raise InvalidConfiguration("snr_step_db must be > 0")
        if _snr_steps(self) >= MAX_SNR_POINTS:
            raise InvalidConfiguration(f"the SNR grid must have at most {MAX_SNR_POINTS} points")
        if self.iterations < 1:
            raise InvalidConfiguration("iterations must be >= 1")
        if self.symbols_per_iteration < 1:
            raise InvalidConfiguration("symbols_per_iteration must be >= 1")
        if not 0 <= self.seed < 2**64:  # a stream key is 64 bits: any other seed would alias one inside
            raise InvalidConfiguration(f"seed must be in [0, 2**64), got {self.seed}")
        h = channel_frequency_response(self.channel, self.cfg.n_subchannels)
        if np.any(np.abs(h[data_bins(self.cfg, self.symbols_per_iteration)]) < 1e-12):
            raise SingularChannelGain("channel response is zero on a subcarrier that carries data")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    eb_n0_db: float
    bit_errors: int
    bits_total: int
    ber: float
    analytic_ber: float | None
    stderr_est: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[BerPoint, ...]
    metadata: dict


def eb_n0_offset_db(cfg: OfdmConfig) -> float:
    """snr_db - eb_n0_db for this configuration."""
    k = build_constellation(cfg.mod_order).bits_per_symbol
    return 10.0 * math.log10(k * cfg.nominal_data_count / cfg.n_subchannels)


def eb_n0_db_for_snr(snr_db: float, cfg: OfdmConfig) -> float:
    return snr_db - eb_n0_offset_db(cfg)


def snr_db_for_eb_n0(eb_n0_db: float, cfg: OfdmConfig) -> float:
    return eb_n0_db + eb_n0_offset_db(cfg)


def analytic_ber(order: int, eb_n0_db: float) -> float | None:
    """Closed-form Gray-coded BER over AWGN, or None where none is adopted.

    order 4 is exact; order 16 is the nearest-neighbor approximation
    0.75*Q(sqrt(0.8*gamma_b)), good to a few percent above ~6 dB; order 8
    has none adopted here.
    """
    build_constellation(order)  # validates order
    if order == 8:
        return None
    gamma_b = 10.0 ** min(eb_n0_db / 10.0, 300.0)  # Q is 0.0 long before this; beyond it the power overflows
    if order == 4:
        return q_function(math.sqrt(2.0 * gamma_b))
    return 0.75 * q_function(math.sqrt(0.8 * gamma_b))


def _check_snr(snr_db: float) -> float:
    """snr_db, if its noise power factor 10^(-snr_db/10) is a finite float (+inf is no noise)."""
    if not -float(snr_db) / 10.0 < math.log10(np.finfo(float).max):  # False for NaN and -inf
        raise InvalidConfiguration(f"SNR {snr_db} dB gives no finite noise power")
    return snr_db


def _snr_steps(spec: SweepSpec) -> float:
    """Grid steps from start to stop; the grid has floor of this plus one points."""
    return (spec.snr_stop_db - spec.snr_start_db) / spec.snr_step_db + 1e-9


def snr_grid(spec: SweepSpec) -> list[float]:
    count = math.floor(_snr_steps(spec)) + 1
    return [spec.snr_start_db + i * spec.snr_step_db for i in range(count)]


def _frame_chunk(spec: SweepSpec, snrs: list[float], iterations: range) -> list[tuple[int, int]]:
    """Run iterations in chunks of about _CHUNK_SAMPLES samples. Each chunk's frames are transmitted once, as
    one (iterations x symbols, N) tensor, given their unit noise once, and received at each SNR; return
    (bit_errors, data_bits) per SNR, summed over the chunks."""
    cfg = spec.cfg
    n_sym = spec.symbols_per_iteration
    const = build_constellation(cfg.mod_order)
    h = channel_frequency_response(spec.channel, cfg.n_subchannels)
    h[~data_bins(cfg, n_sym)] = 1.0  # bins that only carry pilots are never read back
    start, stop = read_range(cfg, n_sym)
    step = max(1, _CHUNK_SAMPLES // (n_sym * cfg.samples_per_symbol))
    frames = min(step, len(iterations))  # one workspace shape per call: every chunk takes leading views of it
    chunk = workspace("chunk", (3, frames * n_sym * cfg.samples_per_symbol))
    units = workspace("noise", (frames, stop - start))
    errors, bits = [0] * len(snrs), 0
    for first in range(iterations.start, iterations.stop, step):
        streams = [seeded_stream(spec.seed, i) for i in range(first, min(first + step, iterations.stop))]
        smap = allocate_subcarriers(cfg, range(n_sym), [s.child(_TAG_ALLOC) for s in streams])
        frame_bits = const.bits_per_symbol * (smap.data_indices.size // len(streams))
        tx_bits = np.concatenate([s.child(_TAG_BITS).bits(frame_bits) for s in streams])

        # a ends with the faded frames, read at every SNR; b with the received ones, FFT'd as a view into c
        rows, n_data = len(streams) * n_sym, smap.data_indices.size
        a, b, c = chunk[:, : rows * cfg.samples_per_symbol]
        grid = a[: rows * cfg.n_subchannels].reshape(rows, -1)
        build_frequency_symbol(map_bits(tx_bits, const, out=b[:n_data]), smap, cfg, out=grid)

        # one row per frame, from silence. Its unit noise is drawn once, on the one range the receiver reads from,
        # each sample at its own stream position, and every SNR scales that same noise. At +inf alone none is drawn
        tx = ofdm_modulate(grid, cfg, out=b.reshape(rows, -1)).reshape(len(streams), -1)
        faded = apply_multipath(tx, spec.channel, out=a.reshape(len(streams), -1))
        power = signal_power(tx)[:, None]
        unit = units[: len(streams)]
        if any(snr_db < math.inf for snr_db in snrs):
            for noise, row in zip([s.child(_TAG_NOISE) for s in streams], unit):
                noise.skip(2 * start)
                noise.uniforms(2 * (stop - start), out=row.view(np.float64))
            box_muller(unit.view(np.float64))
        rx_grid = c[: rows * cfg.n_subchannels].reshape(rows, -1)
        for k, snr_db in enumerate(snrs):
            add_awgn(faded[:, start:stop], snr_db, power, unit, out=tx[:, start:stop])
            ofdm_demodulate(tx.reshape(rows, -1), cfg, out=rx_grid)
            data = extract_data(equalize(rx_grid, h, out=rx_grid), smap, out=b[:n_data])
            errors[k] += int(np.count_nonzero(demap_symbols(data, const) != tx_bits))
        bits += tx_bits.size
    return [(e, bits) for e in errors]


def _helper_loop(conn, parent_end) -> None:
    """Send back fn(*args) for each (fn, args) received, or the exception it raised.
    The copies of older helpers' parent ends that a forked helper holds close when it exits."""
    parent_end.close()  # so that the pipe reads EOF, and this loop ends, once the parent is gone
    # a parent gone, or one that dropped this helper with a reply unread; Ctrl-C is the parent's to report
    with contextlib.suppress(EOFError, ConnectionError, KeyboardInterrupt):
        while True:
            fn, args = conn.recv()
            try:
                conn.send(fn(*args))
            except Exception as exc:
                conn.send(exc)


def _map_on_helpers(fn, calls: list[tuple]) -> list:
    """fn(*args) for each args of calls, one call per helper process, results in call order. Helpers
    are kept for later calls and replaced if found dead; an error or interrupt drops them all."""
    lock, helpers = _helpers.setdefault(os.getpid(), (threading.Lock(), []))
    with lock:
        try:
            helpers[:] = [(proc, conn) for proc, conn in helpers if proc.is_alive()]
            # fork where there is one: a forkserver or spawn helper imports numpy afresh, 0.50 s against 0.09 s
            ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
            while len(helpers) < len(calls):
                parent_end, child_end = ctx.Pipe()
                proc = ctx.Process(target=_helper_loop, args=(child_end, parent_end), daemon=True)
                proc.start()
                child_end.close()
                helpers.append((proc, parent_end))
            try:
                for (_, conn), args in zip(helpers, calls):
                    conn.send((fn, args))
                replies = [conn.recv() for _, conn in helpers[: len(calls)]]
            except (EOFError, ConnectionError) as exc:  # a helper was killed mid-call
                raise OfdmSimError(f"a helper process exited during the call ({type(exc).__name__})") from exc
            if errors := [reply for reply in replies if isinstance(reply, Exception)]:
                raise errors[0]
        except BaseException:
            for proc, conn in helpers:
                conn.close()
                proc.kill()
                proc.join()
            helpers.clear()
            raise
    return replies


def _run_points(spec: SweepSpec, snrs: list[float], workers: int) -> list[BerPoint]:
    """One BerPoint per SNR from one _frame_chunk call per contiguous run of iterations, each run at
    every SNR: in this process, or on up to one helper per usable CPU."""
    snrs = [_check_snr(snr_db) for snr_db in snrs]  # every SNR and the worker count checked before any draw
    if int_field("workers", workers) < 1:
        raise InvalidConfiguration(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    samples = len(snrs) * spec.iterations * spec.symbols_per_iteration * spec.cfg.samples_per_symbol
    workers = max(1, min(workers, cpus, spec.iterations, samples // _HELPER_MIN_SAMPLES))
    bounds = [k * spec.iterations // workers for k in range(workers + 1)]
    runs = [(spec, snrs, range(start, stop)) for start, stop in zip(bounds, bounds[1:])]
    counts = _map_on_helpers(_frame_chunk, runs) if workers > 1 else [_frame_chunk(*runs[0])]

    points = []
    for snr_db, run_counts in zip(snrs, zip(*counts)):
        errors, bits = map(sum, zip(*run_counts))
        ber = errors / bits if bits else 0.0
        eb_n0 = eb_n0_db_for_snr(snr_db, spec.cfg)
        points.append(
            BerPoint(
                snr_db=snr_db,
                eb_n0_db=eb_n0,
                bit_errors=errors,
                bits_total=bits,
                ber=ber,
                analytic_ber=analytic_ber(spec.cfg.mod_order, eb_n0),
                stderr_est=math.sqrt(ber * (1.0 - ber) / bits) if bits else 0.0,
            )
        )
    return points


def run_ber_point(spec: SweepSpec, snr_db: float, workers: int = 1) -> BerPoint:
    """Monte Carlo BER at one SNR: iterations x symbols_per_iteration frames.

    Only data bits are counted. Results are deterministic in (spec, seed)
    for any worker count; helpers are reused across calls.
    """
    return _run_points(spec, [snr_db], workers)[0]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One BerPoint per grid SNR from snr_start to snr_stop in snr_step steps;
    the whole grid is one map over the same helpers as every other call."""
    from . import __version__

    points = tuple(_run_points(spec, snr_grid(spec), workers))
    metadata = {
        "seed": spec.seed,
        "version": __version__,
        "eb_n0_offset_db": eb_n0_offset_db(spec.cfg),
    }
    return SweepResult(spec=spec, points=points, metadata=metadata)


def write_csv(result: SweepResult, sink) -> None:
    """Write one row per BER point; byte output is deterministic."""
    lines = ["snr_db,eb_n0_db,ber,bit_errors,bits_total,analytic_ber"]
    for p in result.points:
        analytic = "" if p.analytic_ber is None else repr(float(p.analytic_ber))
        lines.append(
            f"{float(p.snr_db)!r},{float(p.eb_n0_db)!r},{float(p.ber)!r},"
            f"{p.bit_errors},{p.bits_total},{analytic}"
        )
    _write_lines(lines, sink)

