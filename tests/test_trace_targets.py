"""The span tracer in perfbench/spans.py wraps layer calls where the program
looks them up; every name it wraps must exist there, or a traced benchmark
run fails with a KeyError long after the refactor that dropped it. The
layers must also keep calling through those names, or a traced run reports
zero for the layer they bypass."""

import importlib.util
from pathlib import Path

import pytest

from ofdmsim import OfdmConfig, SweepSpec, harness

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
