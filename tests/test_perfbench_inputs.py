"""The benchmark in perfbench/ builds its configs and its correctness oracle
from the library's public names and config fields. Every workload must still
load, and its expected bit count must match what the library transmits, or a
benchmark run fails with an error or with every point marked wrong long
after the change that broke it."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdmsim.harness import analytic_ber, run_ber_point

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_specs_and_reference_evaluate(name):
    wl = workloads.load(name)
    specs = wl.specs(workloads.DEFAULT_SEED)
    assert len(specs) == wl.sweeps
    for spec in specs:
        assert reference.expected_bits(spec) > 0
    for snr_db in wl.snr_db:
        assert 0.0 <= reference.point_reference(wl.cfg, wl.channel, snr_db) < 0.5
    # one noiseless iteration: the library carries exactly the bits the benchmark expects
    one = dataclasses.replace(specs[0], iterations=1)
    pt = run_ber_point(one, math.inf)
    assert (pt.bit_errors, pt.bits_total) == (0, reference.expected_bits(one))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_sweep_reproduces_the_golden_counts(name):
    # a count that FFT rounding flips fails here, not only in a benchmark run
    wl = workloads.load(name)
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert golden["seed"] == workloads.DEFAULT_SEED
    spec = wl.specs(workloads.DEFAULT_SEED)[0]
    points = [(snr, run_ber_point(spec, snr, workers=1)) for snr in wl.snr_db]
    assert [[snr, pt.bit_errors, pt.bits_total] for snr, pt in points] == golden["workloads"][name][0]


def test_exact_qpsk_reference_equals_analytic_ber():
    # C7 checks order 8 against reference.qam_ber; for Gray QPSK (Es/N0 = 2 gamma_b) both formulas are exact
    for eb_n0_db in np.linspace(-5.0, 15.0, 81):
        gamma_b = 10.0 ** (eb_n0_db / 10.0)
        assert reference.qam_ber(4, 2.0 * gamma_b) == pytest.approx(analytic_ber(4, eb_n0_db), rel=1e-12, abs=0.0)
