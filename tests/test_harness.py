import io
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim import harness, ofdm
from ofdmsim.channel import ChannelModel, add_awgn, apply_multipath, signal_power
from ofdmsim.errors import InvalidConfiguration, SingularChannelGain, UnsupportedOrder
from ofdmsim.harness import (
    MAX_SNR_POINTS,
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
from ofdmsim.modem import build_constellation, demap_symbols, map_bits
from ofdmsim.numerics import q_function, seeded_stream
from ofdmsim.ofdm import (
    OfdmConfig,
    channel_frequency_response,
    ofdm_demodulate,
    ofdm_modulate,
)


def _spec(**kw):
    cfg_kw = {
        "n_subchannels": kw.pop("n", 256),
        "mod_order": kw.pop("order", 4),
        "pilot_count": kw.pop("pilots", 32),
        "pilot_pattern": kw.pop("pattern", "comb"),
    }
    return SweepSpec(cfg=OfdmConfig(**cfg_kw), **kw)


def test_default_grid_has_ten_points():
    assert snr_grid(_spec()) == [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0]


def test_spec_validation():
    with pytest.raises(InvalidConfiguration):
        _spec(snr_start_db=10.0, snr_stop_db=0.0)
    with pytest.raises(InvalidConfiguration):
        _spec(snr_step_db=0.0)
    with pytest.raises(InvalidConfiguration):
        _spec(iterations=0)
    for field in ("snr_start_db", "snr_stop_db", "snr_step_db"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidConfiguration):
                _spec(**{field: value})


def test_eb_n0_offset():
    cfg = OfdmConfig(n_subchannels=256, mod_order=4, pilot_count=32)
    expected = 10 * math.log10(2 * 224 / 256)
    assert eb_n0_offset_db(cfg) == pytest.approx(expected)
    assert eb_n0_db_for_snr(9.0, cfg) == pytest.approx(9.0 - expected)
    assert snr_db_for_eb_n0(9.0 - expected, cfg) == pytest.approx(9.0)


def test_offset_without_pilots_is_bits_per_symbol():
    cfg = OfdmConfig(n_subchannels=256, mod_order=16, pilot_count=0)
    assert eb_n0_offset_db(cfg) == pytest.approx(10 * math.log10(4))


def test_analytic_ber_values():
    assert analytic_ber(4, 0.0) == pytest.approx(0.0786496, abs=1e-6)
    assert analytic_ber(4, 6.02) == pytest.approx(0.0023403, abs=1e-6)
    assert analytic_ber(16, 10.0) == pytest.approx(0.0017542, abs=1e-6)
    assert analytic_ber(8, 5.0) is None
    with pytest.raises(UnsupportedOrder):
        analytic_ber(64, 5.0)


def test_noiseless_point_is_error_free():
    pt = run_ber_point(_spec(iterations=3), math.inf)
    assert pt.bit_errors == 0
    assert pt.ber == 0.0
    assert pt.bits_total >= 10_000
    assert pt.stderr_est == 0.0


def test_qpsk_point_matches_analytic():
    spec = _spec(pilots=0, iterations=50)
    snr = snr_db_for_eb_n0(0.0, spec.cfg)
    pt = run_ber_point(spec, snr)
    assert pt.analytic_ber == pytest.approx(q_function(math.sqrt(2.0)), abs=1e-9)
    assert abs(pt.ber - pt.analytic_ber) <= 3 * pt.stderr_est


def test_point_counts_are_consistent():
    pt = run_ber_point(_spec(iterations=5), 6.0)
    assert 0 <= pt.bit_errors <= pt.bits_total
    assert pt.ber == pt.bit_errors / pt.bits_total
    # comb pattern: 224 data carriers * 2 bits * 10 symbols * 5 iterations
    assert pt.bits_total == 224 * 2 * 10 * 5


def test_same_seed_reproduces_counts():
    a = run_ber_point(_spec(iterations=10), 6.0)
    b = run_ber_point(_spec(iterations=10), 6.0)
    assert a == b


def test_parallel_workers_match_sequential():
    spec = _spec(iterations=8)
    seq = run_ber_point(spec, 6.0, workers=1)
    par = run_ber_point(spec, 6.0, workers=2)
    assert seq == par


@pytest.fixture
def pools():
    """max_workers of every pool the harness starts; an in-process stand-in
    replaces the pool, so no process is started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    with mock.patch.object(harness, "ProcessPoolExecutor", RecordingPool):
        yield started


def test_workers_capped_at_cpu_count(pools):
    spec = _spec(n=64, pilots=8, iterations=12)
    seq = run_ber_point(spec, 6.0, workers=1)
    with mock.patch("os.cpu_count", return_value=2):
        capped = run_ber_point(spec, 6.0, workers=100_000)
    with mock.patch("os.cpu_count", return_value=None):
        unknown = run_ber_point(spec, 6.0, workers=100_000)
    assert pools == [2]
    assert capped == seq
    assert unknown == seq


def test_sweep_starts_one_pool(pools):
    spec = _spec(n=64, pilots=8, iterations=12, snr_stop_db=8.0, snr_step_db=4.0)
    per_point = tuple(run_ber_point(spec, snr) for snr in snr_grid(spec))
    assert len(per_point) == 3
    with mock.patch("os.cpu_count", return_value=2):
        pooled = run_sweep(spec, workers=100_000)
    assert pools == [2]
    assert pooled.points == run_sweep(spec, workers=1).points == per_point


def test_sweep_splits_chunk_counts_by_snr():
    # 2 iterations per chunk: 5 iterations make chunks of 2, 2 and 1 at each SNR
    spec = _spec(n=64, pilots=8, iterations=5, snr_stop_db=12.0, snr_step_db=4.0)
    chunk_samples = 2 * spec.symbols_per_iteration * spec.cfg.samples_per_symbol
    with mock.patch.object(harness, "_CHUNK_SAMPLES", chunk_samples):
        points = run_sweep(spec).points
    assert len(points) == 4
    assert points == tuple(run_ber_point(spec, snr) for snr in snr_grid(spec))


def test_order_dominance_at_fixed_snr():
    bers = {}
    for order in (4, 8, 16):
        spec = SweepSpec(
            cfg=OfdmConfig(n_subchannels=256, mod_order=order), iterations=40
        )
        pt = run_ber_point(spec, 9.0)
        bers[order] = pt
    assert bers[4].ber <= bers[8].ber + 3 * bers[8].stderr_est
    assert bers[8].ber <= bers[16].ber + 3 * bers[16].stderr_est


def test_ber_monotonic_in_snr():
    spec = _spec(iterations=30, snr_stop_db=12.0, snr_step_db=4.0)
    result = run_sweep(spec)
    bers = [p.ber for p in result.points]
    slack = [3 * p.stderr_est for p in result.points]
    assert all(bers[i] + slack[i] >= bers[i + 1] - slack[i + 1] for i in range(len(bers) - 1))


def test_ber_invariant_to_subchannel_count():
    # unitary transforms: AWGN BER at fixed Eb/N0 does not depend on N
    points = {}
    for n in (256, 512, 4096):
        cfg = OfdmConfig(n_subchannels=n, mod_order=4, pilot_count=0)
        iters = max(2, 120_000 // (2 * n * 10))
        spec = SweepSpec(cfg=cfg, iterations=iters)
        points[n] = run_ber_point(spec, snr_db_for_eb_n0(4.0, cfg))
    pairs = [(256, 512), (512, 4096), (256, 4096)]
    for a, b in pairs:
        sigma = math.sqrt(points[a].stderr_est ** 2 + points[b].stderr_est ** 2)
        assert abs(points[a].ber - points[b].ber) <= 3 * sigma


@pytest.mark.parametrize("order", [4, 16])
def test_ofdm_equals_single_carrier(order):
    cfg = OfdmConfig(n_subchannels=256, mod_order=order, pilot_count=0)
    eb = 6.0
    spec = SweepSpec(cfg=cfg, iterations=60)
    pt = run_ber_point(spec, snr_db_for_eb_n0(eb, cfg))
    errors, bits = single_carrier_ber_counts(order, eb, pt.bits_total, seeded_stream(77, 0))
    sc_ber = errors / bits
    sigma = math.sqrt(pt.stderr_est ** 2 + sc_ber * (1 - sc_ber) / bits)
    assert abs(pt.ber - sc_ber) <= 3 * sigma


def test_multipath_channel_point_is_error_free_noiseless():
    channel = ChannelModel(((1.0, 0), (0.4 - 0.2j, 7), (0.2j, 20)))
    spec = SweepSpec(
        cfg=OfdmConfig(n_subchannels=256, cp_len=32, mod_order=16),
        iterations=4,
        channel=channel,
    )
    pt = run_ber_point(spec, math.inf)
    assert pt.bit_errors == 0


def test_sweep_metadata_and_points():
    spec = _spec(iterations=2, snr_stop_db=6.0)
    result = run_sweep(spec)
    assert len(result.points) == 3
    assert result.metadata["seed"] == spec.seed
    assert "version" in result.metadata
    assert result.metadata["eb_n0_offset_db"] == pytest.approx(eb_n0_offset_db(spec.cfg))


def test_csv_header_only_for_empty_points():
    from ofdmsim.harness import SweepResult

    result = SweepResult(spec=_spec(), points=(), metadata={})
    buf = io.StringIO()
    write_csv(result, buf)
    assert buf.getvalue() == "snr_db,eb_n0_db,ber,bit_errors,bits_total,analytic_ber\n"


def test_csv_row_contents():
    spec = _spec(pilots=0, iterations=2, snr_stop_db=0.0)
    result = run_sweep(spec)
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert int(fields[3]) == result.points[0].bit_errors
    assert int(fields[4]) == result.points[0].bits_total
    assert float(fields[5]) == pytest.approx(result.points[0].analytic_ber)


def test_csv_analytic_column_empty_for_order8():
    spec = SweepSpec(
        cfg=OfdmConfig(n_subchannels=256, mod_order=8),
        iterations=1,
        snr_stop_db=0.0,
    )
    buf = io.StringIO()
    write_csv(run_sweep(spec), buf)
    assert buf.getvalue().splitlines()[1].endswith(",")


def test_csv_bytes_stable_across_runs():
    spec = _spec(iterations=3, snr_stop_db=6.0)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_sweep(spec), buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_noiseless_all_pilot_frames_count_zero_bits():
    cfg = OfdmConfig(n_subchannels=64, pilot_pattern="block", block_period=1, pilot_count=8)
    spec = SweepSpec(cfg=cfg, iterations=1, symbols_per_iteration=2)
    pt = run_ber_point(spec, math.inf)
    assert pt.bits_total == 0
    assert pt.ber == 0.0


def _oracle_allocate(cfg, symbol_index, rng):
    """One symbol's (pilot bins, data bins, pilot values), drawn per symbol."""
    n = cfg.n_subchannels
    count = cfg.pilot_count
    if cfg.pilot_pattern == "block":
        pilots = np.arange(n) if symbol_index % cfg.block_period == 0 else np.empty(0, dtype=np.intp)
    elif cfg.pilot_pattern == "comb":
        pilots = np.array([round(i * n / count) for i in range(count)], dtype=np.intp)
    else:
        draw = rng.child(ofdm._TAG_INDICES, symbol_index)
        pilots = np.sort(np.argsort(draw.uniforms(n), kind="stable")[:count])
    mask = np.ones(n, dtype=bool)
    mask[pilots] = False
    values = np.empty(0, dtype=np.complex128)
    if pilots.size:
        u = rng.child(ofdm._TAG_VALUES, symbol_index).uniforms(2 * pilots.size)
        re = np.where(u[0::2] < 0.5, 1.0, -1.0)
        im = np.where(u[1::2] < 0.5, 1.0, -1.0)
        values = (re + 1j * im) / math.sqrt(2.0)
    return pilots, np.flatnonzero(mask), values


def _oracle_counts(spec, snr_db, iteration):
    """One iteration symbol by symbol, as the harness ran it before frames
    were batched into chunks; returns (bit_errors, data_bits)."""
    cfg = spec.cfg
    n_sym = spec.symbols_per_iteration
    const = build_constellation(cfg.mod_order)
    h = channel_frequency_response(spec.channel, cfg.n_subchannels)
    rng = seeded_stream(spec.seed, iteration)
    bits_rng = rng.child(harness._TAG_BITS)
    noise_rng = rng.child(harness._TAG_NOISE)
    alloc_rng = rng.child(harness._TAG_ALLOC)

    maps = [_oracle_allocate(cfg, j, alloc_rng) for j in range(n_sym)]
    counts = [data.size for _, data, _ in maps]
    total_bits = const.bits_per_symbol * sum(counts)
    tx_bits = bits_rng.bits(total_bits)
    data_syms = map_bits(tx_bits, const)

    grid = np.zeros((n_sym, cfg.n_subchannels), dtype=np.complex128)
    offset = 0
    for j, (pilots, data, values) in enumerate(maps):
        grid[j, data] = data_syms[offset : offset + counts[j]]
        grid[j, pilots] = values
        offset += counts[j]

    tx = ofdm_modulate(grid, cfg).ravel()
    faded = apply_multipath(tx, spec.channel)
    rx = add_awgn(faded, snr_db, signal_power(tx), noise_rng)

    fgrid = ofdm_demodulate(rx.reshape(n_sym, cfg.samples_per_symbol), cfg)
    rx_syms = np.concatenate([fgrid[j, data] / h[data] for j, (_, data, _) in enumerate(maps)])
    rx_bits = demap_symbols(rx_syms, const)
    return int(np.count_nonzero(rx_bits != tx_bits)), total_bits


def _oracle_point(spec, snr_db):
    counts = [_oracle_counts(spec, snr_db, i) for i in range(spec.iterations)]
    return sum(e for e, _ in counts), sum(b for _, b in counts)


@st.composite
def _small_specs(draw):
    n = 1 << draw(st.integers(3, 7))
    n_sym = draw(st.one_of(st.just(1), st.integers(1, 12)))
    cp_len = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    pattern = draw(st.sampled_from(["block", "comb", "random"]))
    pilot_count = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    cfg = OfdmConfig(
        n_subchannels=n,
        cp_len=cp_len,
        pilot_pattern=pattern,
        pilot_count=pilot_count,
        mod_order=draw(st.sampled_from([4, 8, 16])),
        block_period=draw(st.integers(1, 4)),
    )
    # a unit main tap plus echoes of total gain below 1 has no spectral
    # null; echo delays reach past the whole frame, which must add nothing
    frame_len = n_sym * cfg.samples_per_symbol
    delays = draw(st.lists(st.integers(1, 2 * frame_len), max_size=2, unique=True))
    gain = st.complex_numbers(max_magnitude=0.4)
    taps = ((1.0, 0),) + tuple((draw(gain), d) for d in delays)
    spec = SweepSpec(
        cfg=cfg,
        iterations=draw(st.integers(1, 9)),
        symbols_per_iteration=n_sym,
        seed=draw(st.integers(0, 2**64 - 1)),
        channel=ChannelModel(taps),
    )
    return spec, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(case=_small_specs(), snr_db=st.sampled_from([0.0, 8.0, 20.0, math.inf]))
def test_frame_chunks_match_per_symbol_oracle(case, snr_db):
    spec, per_chunk = case
    # shrink the chunk so a few iterations already span several chunks and
    # the last one is short whenever iterations is not a multiple of per_chunk
    chunk_samples = per_chunk * spec.symbols_per_iteration * spec.cfg.samples_per_symbol
    with mock.patch.object(harness, "_CHUNK_SAMPLES", chunk_samples):
        pt = run_ber_point(spec, snr_db)
    assert (pt.bit_errors, pt.bits_total) == _oracle_point(spec, snr_db)


def test_default_chunks_match_oracle_past_a_chunk_boundary():
    # N = 8, one symbol, no prefix: 512 iterations per chunk, so 513 span two
    cfg = OfdmConfig(n_subchannels=8, cp_len=0, pilot_pattern="random", pilot_count=0, mod_order=16)
    channel = ChannelModel(((1.0, 0), (0.3 - 0.1j, 9)))  # echo later than the 8-sample frame
    spec = SweepSpec(cfg=cfg, iterations=513, symbols_per_iteration=1, channel=channel)
    pt = run_ber_point(spec, 6.0)
    assert (pt.bit_errors, pt.bits_total) == _oracle_point(spec, 6.0)


def test_spec_rejects_spectral_null_on_data_bins():
    # 1 + z^-1 is zero at bin N/2 = 32, a comb pilot bin at the default
    # 8 pilots, a data bin in every other layout
    null = ChannelModel(((1.0, 0), (1.0, 1)))
    SweepSpec(cfg=OfdmConfig(n_subchannels=64, pilot_count=8), channel=null)
    SweepSpec(cfg=OfdmConfig(n_subchannels=64, pilot_pattern="block", block_period=1), channel=null)
    SweepSpec(cfg=OfdmConfig(n_subchannels=64, pilot_pattern="block"), symbols_per_iteration=1, channel=null)
    for cfg_kw in (
        {"pilot_count": 0},
        {"pilot_count": 7},
        {"pilot_pattern": "block"},
        {"pilot_pattern": "random", "pilot_count": 0},
        {"pilot_pattern": "random", "pilot_count": 8},
    ):
        with pytest.raises(SingularChannelGain):
            SweepSpec(cfg=OfdmConfig(n_subchannels=64, **cfg_kw), channel=null)


def test_spec_bounds_snr_grid_points():
    spec = _spec(snr_start_db=0.0, snr_stop_db=MAX_SNR_POINTS - 1.0, snr_step_db=1.0)
    assert len(snr_grid(spec)) == MAX_SNR_POINTS
    for stop, step in ((float(MAX_SNR_POINTS), 1.0), (6.0, 1e-300), (1e308, 5e-324)):
        with pytest.raises(InvalidConfiguration):
            _spec(snr_start_db=0.0, snr_stop_db=stop, snr_step_db=step)
    with pytest.raises(InvalidConfiguration):
        _spec(snr_start_db=-1e308, snr_stop_db=1e308)


def test_chunk_allocates_under_two_frames():
    # every chunk-sized array lives in the reused workspace, so a warm point
    # of long rows allocates less than two frame tensors at its peak
    spec = _spec(n=4096, order=16, pilots=512, iterations=2)
    frame_bytes = spec.symbols_per_iteration * spec.cfg.samples_per_symbol * 16
    run_ber_point(spec, 6.0)
    tracemalloc.start()
    try:
        run_ber_point(spec, 9.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * frame_bytes


def test_threads_sharing_a_chunk_shape_match_sequential_runs():
    # each thread has its own workspace; a short switch interval interleaves
    # four threads on the same chunk shape often
    specs = [_spec(n=64, pilots=8, iterations=12, seed=seed) for seed in range(4)]
    expected = [run_ber_point(spec, 6.0) for spec in specs]
    results = [None] * len(specs)

    def run(k):
        results[k] = run_ber_point(specs[k], 6.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_alternating_chunk_shapes_match_oracle():
    # one thread moving between workspaces of different shapes, with a short
    # last chunk, must never see another shape's leftovers
    specs = [
        _spec(n=64, pilots=8, iterations=7, order=16),
        _spec(n=32, pilots=0, iterations=3, pattern="random"),
        SweepSpec(cfg=OfdmConfig(n_subchannels=16, cp_len=3, pilot_pattern="block"), iterations=5,
                  symbols_per_iteration=3, channel=ChannelModel(((1.0, 0), (0.3j, 2)))),
    ]
    for spec in specs + specs[::-1]:
        chunk_samples = 2 * spec.symbols_per_iteration * spec.cfg.samples_per_symbol
        with mock.patch.object(harness, "_CHUNK_SAMPLES", chunk_samples):
            pt = run_ber_point(spec, 4.0)
        assert (pt.bit_errors, pt.bits_total) == _oracle_point(spec, 4.0)


def test_noiseless_point_after_a_noisy_one_is_error_free():
    spec = _spec(n=256, iterations=2, order=16)
    assert run_ber_point(spec, 0.0).bit_errors > 0
    assert run_ber_point(spec, math.inf).bit_errors == 0
