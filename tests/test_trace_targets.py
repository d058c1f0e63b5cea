"""The span tracer in perfbench/spans.py wraps layer calls where the program
looks them up; every name it wraps must exist there, or a traced benchmark
run fails with a KeyError long after the refactor that dropped it. The
layers must also keep calling through those names, or a traced run reports
zero for the layer they bypass.

The allocator draws its pilot rows through numerics.child_uniforms, which
re-keys one generator per row and calls no RngStream method; the tracer does
not wrap it. So numerics.uniforms_drawn counts the bits and the noise, and
the pilot rows' time lands in ofdm.allocate_s."""

import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ofdmsim import OfdmConfig, SweepSpec, allocate_subcarriers, harness, transform
from ofdmsim.numerics import RngStream, seeded_stream
from ofdmsim.ofdm import PILOT_PATTERNS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("targets", [spans.point_targets, spans.cli_targets])
def test_traced_names_are_defined_where_looked_up(targets):
    for owner, attr, _, _ in targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_traced_point_counts_every_transform_row():
    # an ofdm that called np.fft itself would leave the transform metrics at zero
    spec = SweepSpec(cfg=OfdmConfig(n_subchannels=64, mod_order=4), iterations=3, symbols_per_iteration=2)
    with spans.Tracer(spans.point_targets()) as tracer:
        harness.run_ber_point(spec, 10.0)
    assert tracer.counts["transform.rows"] == 2 * spec.iterations * spec.symbols_per_iteration
    assert tracer.self_ns["transform.fft_s"] > 0 and tracer.self_ns["transform.ifft_s"] > 0


@pytest.mark.parametrize(
    "pattern, bits, read_samples",
    [
        # symbols 0 and 8 hold only pilots: 8 data symbols, read from the body of symbol 1 to the end of symbol 9
        ("block", 131_072, 40_960),
        # 512 pilots a symbol: 10 data symbols, read from the first body to the end of the frame
        ("comb", 143_360, 45_568),
        ("random", 143_360, 45_568),
    ],
    ids=["block", "comb", "random"],
)
def test_traced_n4096_point_draws_noise_on_one_range_per_frame(pattern, bits, read_samples):
    # ten 16-QAM symbols at N = 4096, cp 512: the pilot values and random pilot rows are not counted
    spec = SweepSpec(cfg=OfdmConfig(n_subchannels=4096, pilot_pattern=pattern, mod_order=16), iterations=1)
    with spans.Tracer(spans.point_targets()) as tracer:
        harness.run_ber_point(spec, 6.0)
    assert tracer.counts["numerics.uniforms_drawn"] == bits + 2 * read_samples
    assert tracer.self_ns["channel.awgn_self_s"] > 0


def test_traced_random_point_counts_bits_and_noise_but_no_pilot_row():
    # N = 64, 8 random pilots: the rows' pilot indices and values are not counted; every symbol
    # carries data, so each frame's read range runs from the first body to the end of the frame
    n, pilots, order_bits = 64, 8, 3
    cfg = OfdmConfig(n_subchannels=n, pilot_pattern="random", pilot_count=pilots, mod_order=8)
    spec = SweepSpec(cfg=cfg, iterations=100)
    with spans.Tracer(spans.point_targets()) as tracer:
        harness.run_ber_point(spec, 6.0)
    rows = spec.iterations * spec.symbols_per_iteration
    bits = order_bits * (n - pilots) * rows
    read_samples = spec.iterations * (spec.symbols_per_iteration * cfg.samples_per_symbol - cfg.cp_len)
    assert tracer.counts["numerics.uniforms_drawn"] == bits + 2 * read_samples
    assert tracer.counts["ofdm.allocate_calls"] == 3  # chunks of 45, 45 and 10 iterations


def _transform_rows(call):
    return sum(math.prod(np.shape(c.args[0])[:-1]) for c in call.call_args_list)


@pytest.mark.parametrize("pattern", ["block", "comb", "random"])
def test_a_sweep_draws_and_transmits_once_and_receives_at_each_snr(pattern):
    # one chunk of 3 iterations: its bits, pilots and unit noise are drawn and its frames
    # sent once, whatever the SNR count; only the receive chain runs once per SNR
    spec = SweepSpec(cfg=OfdmConfig(n_subchannels=64, pilot_pattern=pattern, mod_order=8), iterations=3)
    work = []
    for run in (lambda: harness.run_ber_point(spec, 6.0), lambda: harness._run_points(spec, [0.0, 6.0, 12.0], 1)):
        with spans.Tracer(spans.point_targets()) as tracer, \
                mock.patch.object(transform, "ifft", wraps=transform.ifft) as ifft, \
                mock.patch.object(transform, "fft", wraps=transform.fft) as fft:
            run()
        work.append((tracer.counts["numerics.uniforms_drawn"], _transform_rows(ifft), _transform_rows(fft),
                     tracer.counts["modem.demapped_symbols"]))
    (drawn, ifft_rows, fft_rows, demapped), sweep = work
    assert fft_rows == ifft_rows == spec.iterations * spec.symbols_per_iteration
    assert sweep == (drawn, ifft_rows, 3 * fft_rows, 3 * demapped)


def test_a_noiseless_point_draws_only_bits_and_pilots():
    # at +inf alone no noise is read, so the chunk draws none
    n, pilots, order_bits = 64, 8, 3
    cfg = OfdmConfig(n_subchannels=n, pilot_pattern="random", pilot_count=pilots, mod_order=8)
    spec = SweepSpec(cfg=cfg, iterations=50)
    with spans.Tracer(spans.point_targets()) as tracer:
        harness.run_ber_point(spec, math.inf)
    rows = spec.iterations * spec.symbols_per_iteration
    assert tracer.counts["numerics.uniforms_drawn"] == order_bits * (n - pilots) * rows
    assert tracer.self_ns["channel.awgn_self_s"] > 0


@pytest.mark.parametrize("pattern", PILOT_PATTERNS)
def test_the_allocator_makes_no_stream_per_row(pattern):
    # the row streams are keys hashed in one pass, not RngStream objects
    streams = [seeded_stream(3, i).child(7) for i in range(4)]
    with mock.patch.object(RngStream, "__init__", autospec=True, side_effect=RngStream.__init__) as init:
        smap = allocate_subcarriers(OfdmConfig(n_subchannels=64, pilot_pattern=pattern), range(10), streams)
    assert init.call_count == 0 and smap.pilot_values.size > 0
