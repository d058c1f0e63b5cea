"""Self-test of the benchmark's tracer, reference and metric tables.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ofdmsim import ChannelModel, OfdmConfig, SweepSpec, harness, q_function  # noqa: E402
from spans import Tracer, cli_targets, point_targets  # noqa: E402

TINY = SweepSpec(
    cfg=OfdmConfig(16, mod_order=16, pilot_pattern="random", pilot_count=2),
    iterations=3,
    symbols_per_iteration=4,
    seed=5,
    channel=ChannelModel(((1.0, 0), (0.3j, 2))),
)


def _originals(targets):
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]


def test_tracer_restores_every_patched_attribute():
    targets = point_targets() + cli_targets()
    before = _originals(targets)
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError("leave the traced block by an exception")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_traced_counts_equal_untraced_counts():
    tracer = Tracer(point_targets())
    for snr in (0.0, 6.0, 12.0):
        untraced = harness.run_ber_point(TINY, snr)
        with tracer:
            traced = harness.run_ber_point(TINY, snr)
        assert (traced.bit_errors, traced.bits_total) == (untraced.bit_errors, untraced.bits_total)
    roots = [i for i, parent in enumerate(tracer.parents) if parent == -1]
    assert len(roots) == 3
    root_ns = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    assert sum(tracer.self_ns.values()) == root_ns


def test_z_bound_accepts_true_count_and_rejects_wrong_ones():
    spec = SweepSpec(cfg=OfdmConfig(64, mod_order=16), iterations=20, seed=3)
    point = harness.run_ber_point(spec, 3.0)
    ber = reference.point_reference(spec.cfg, spec.channel, 3.0)
    assert point.bits_total == reference.expected_bits(spec)
    assert reference.within_z_bound(point.bit_errors, point.bits_total, ber)
    for wrong in (int(point.bit_errors * 0.9), int(point.bit_errors * 1.1)):
        assert not reference.within_z_bound(wrong, point.bits_total, ber)


@pytest.mark.parametrize("es_n0", [0.5, 2.0, 10.0, 60.0])
def test_qam_ber_matches_closed_forms(es_n0):
    assert math.isclose(reference.qam_ber(4, es_n0), q_function(math.sqrt(es_n0)), rel_tol=1e-12)
    d = math.sqrt(es_n0 / 5.0)
    q16 = (3 * q_function(d) + 2 * q_function(3 * d) - q_function(5 * d)) / 4
    assert math.isclose(reference.qam_ber(16, es_n0), q16, rel_tol=1e-12)


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_tail_leaves_ten_samples_beyond_it():
    times = [float(t) for t in range(1, 151)]
    pct, value = run._tail(times)
    assert math.isclose(pct, 100.0 * (1 - 10 / 150))
    assert sum(t > value for t in times) == 10
