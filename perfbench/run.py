"""ofdmsim benchmark: one workload of BER points, timed, traced and checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernel_n4096_q16 --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's points back to back through the
public ofdmsim API for --seconds, and checks every point: exact counts from
golden.json for the default seed, the exact known-CSI BER reference within a
z-bound for any other seed. --trace 0 reports the end-to-end metrics;
--trace 1 wraps each layer's public functions (spans.py) and reports the
per-layer split. The last line of stdout is the JSON result; the lines before
it print every metric by name and unit, with the environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the checkout's own sources; without them the imports below fail and no
# result is printed
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from ofdmsim import cli, harness  # noqa: E402
from spans import Tracer, cli_targets, point_targets  # noqa: E402

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 7
# point_s_tail is read at the percentile that leaves this many points beyond it
TAIL_SAMPLES = 10
CLI_WORKLOAD = "frame_n64_random_q8"

END_TO_END_UNITS = {
    "throughput_msc_s": "Msc/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# busy metrics are self seconds per traced point; counts are per traced point
PER_LAYER_UNITS = {
    "numerics.stream_s": "s/point",
    "numerics.bits_s": "s/point",
    "numerics.uniforms_s": "s/point",
    "numerics.gaussian_s": "s/point",
    "numerics.uniforms_drawn": "count/point",
    "transform.fft_s": "s/point",
    "transform.ifft_s": "s/point",
    "transform.rows": "count/point",
    "transform.flops_computed": "count/point",
    "transform.bytes_computed": "count/point",
    "transform.gflops": "GFLOP/s",
    "modem.map_s": "s/point",
    "modem.demap_s": "s/point",
    "modem.demapped_symbols": "count/point",
    "ofdm.allocate_s": "s/point",
    "ofdm.allocate_calls": "count/point",
    "ofdm.equalize_s": "s/point",
    "ofdm.equalize_calls": "count/point",
    "ofdm.extract_s": "s/point",
    "ofdm.modulate_self_s": "s/point",
    "ofdm.demodulate_self_s": "s/point",
    "channel.multipath_s": "s/point",
    "channel.awgn_self_s": "s/point",
    "channel.signal_power_s": "s/point",
    "harness.self_s": "s/point",
    "harness.parallel_speedup": "ratio",
    "harness.write_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


class Checker:
    """Correctness of one point: exact golden counts, or the reference z-bound."""

    def __init__(self, wl, seed: int):
        self.bits = reference.expected_bits(wl.specs(seed)[0])
        self.golden = None
        if seed == workloads.DEFAULT_SEED:
            golden = json.loads((HERE / "golden.json").read_text())
            self.golden = {
                (k, snr): (errors, bits)
                for k, rows in enumerate(golden["workloads"][wl.name])
                for snr, errors, bits in rows
            }
        self.ber = {snr: reference.point_reference(wl.cfg, wl.channel, snr) for snr in wl.snr_db}

    def ok(self, k: int, snr: float, errors: int, bits: int) -> bool:
        if self.golden is not None:
            return self.golden[(k, snr)] == (errors, bits)
        return bits == self.bits and reference.within_z_bound(errors, bits, self.ber[snr])


def _run_point(spec, snr, workers):
    """((bit_errors, bits_total) or None if the call raised, wall seconds)."""
    t0 = time.perf_counter()
    try:
        p = harness.run_ber_point(spec, snr, workers)
        counts = (p.bit_errors, p.bits_total)
    except Exception:  # a failing point is counted, not fatal
        traceback.print_exc()
        counts = None
    return counts, time.perf_counter() - t0


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it, 100 * (1 - 10/n), and its value."""
    n = len(times)
    if n <= TAIL_SAMPLES:
        return 100.0, max(times)
    pct = 100.0 * (1.0 - TAIL_SAMPLES / n)
    return pct, float(np.percentile(times, pct))


def _setup_probe(wl, seed: int) -> tuple[float, tuple[int, int]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], (out["bit_errors"], out["bits_total"])


def end_to_end(wl, seed: int, seconds: float):
    checker = Checker(wl, seed)
    specs = wl.specs(seed)
    attempted = failed = 0

    # set-up probes are spread evenly over the timed points, so their median
    # samples the same stretch of host load as the points; probe i runs once
    # i / SETUP_REPEATS of the point time has elapsed
    setup, times = [], []
    busy = 0.0
    j = 0
    while j == 0 or busy < seconds:
        while len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup_s, counts = _setup_probe(wl, seed)
            setup.append(setup_s)
            attempted += 1
            failed += not checker.ok(0, wl.snr_db[0], *counts)
        k, snr = wl.point(j)
        counts, dt = _run_point(specs[k], snr, wl.workers)
        times.append(dt)
        busy += dt
        attempted += 1
        failed += counts is None or not checker.ok(k, snr, *counts)
        j += 1

    pct, tail = _tail(times)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "throughput_msc_s": wl.subcarrier_symbols * len(times) / sum(times) / 1e6,
        "point_s_p50": statistics.median(times),
        "point_s_tail": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = {
        "throughput_msc_s": f"{len(times)} timed points, {sum(times):.2f} s",
        "point_s_p50": f"median of {len(times)} points",
        "point_s_tail": f"p{pct:.1f} of {len(times)} points",
        "setup_s": f"median of {len(setup)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mb": f"ru_maxrss self {self_kb / 1024:.1f} + children {child_kb / 1024:.1f}",
        "ok_frac": f"failed_frac = {failed / attempted:g} ({failed} of {attempted} points)",
    }
    return attempted, failed, metrics, notes


def _cli_run(seed: int) -> tuple[object, int, int]:
    """One in-process cli.main sweep of the CLI workload; (tracer, attempted, failed)."""
    wl = workloads.load(CLI_WORKLOAD)
    spec = wl.specs(seed)[0]
    cfg = wl.cfg
    grid = wl.snr_db
    checker = Checker(wl, seed)
    tracer = Tracer(cli_targets())
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".tmp-") as tmp:
        out = Path(tmp) / "sweep.csv"
        argv = [
            "--subchannels", str(cfg.n_subchannels), "--order", str(cfg.mod_order),
            "--pilots", cfg.pilot_pattern, "--pilot-count", str(cfg.pilot_count),
            "--snr-start", str(grid[0]), "--snr-stop", str(grid[-1]),
            "--snr-step", str(grid[1] - grid[0]), "--iterations", str(spec.iterations),
            "--symbols-per-iter", str(spec.symbols_per_iteration),
            "--seed", str(spec.seed), "--out", str(out),
        ]
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        rows = out.read_text().splitlines()[1:] if code == 0 else []
    attempted = len(grid)
    failed = attempted - len(rows)
    for row in rows:
        snr, _, _, errors, bits, _ = row.split(",")
        failed += not checker.ok(0, float(snr), int(errors), int(bits))
    return tracer, attempted, failed


def per_layer(wl, seed: int, seconds: float):
    checker = Checker(wl, seed)
    specs = wl.specs(seed)
    tracer = Tracer(point_targets())
    attempted = failed = 0
    untraced, traced, pooled = [], [], []

    deadline = time.perf_counter() + seconds
    j = 0
    while j == 0 or time.perf_counter() < deadline:
        k, snr = wl.point(j)
        # alternate which leg runs first so drift does not bias the overhead
        legs = ["untraced", "traced"] if j % 2 == 0 else ["traced", "untraced"]
        if wl.workers > 1:
            legs.append("pooled")
        results = []
        for leg in legs:
            if leg == "traced":
                with tracer:
                    counts, dt = _run_point(specs[k], snr, 1)
                traced.append(dt)
            else:
                counts, dt = _run_point(specs[k], snr, wl.workers if leg == "pooled" else 1)
                (pooled if leg == "pooled" else untraced).append(dt)
            results.append(counts)
        attempted += 1
        failed += (
            results[0] is None
            or any(r != results[0] for r in results)
            or not checker.ok(k, snr, *results[0])
        )
        j += 1

    cli_tracer, cli_attempted, cli_failed = _cli_run(seed)
    attempted += cli_attempted
    failed += cli_failed

    (HERE / "out").mkdir(exist_ok=True)
    tracer.save(HERE / "out" / f"spans-{wl.name}.npz")

    n = len(traced)
    busy_ns = sum(tracer.self_ns.values())
    metrics = {m: tracer.self_seconds(m) / n for m in tracer.metric_names}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count/point":
            metrics[key] = tracer.counts[key] / n
    transform_ns = tracer.self_ns["transform.fft_s"] + tracer.self_ns["transform.ifft_s"]
    metrics["transform.gflops"] = tracer.counts["transform.flops_computed"] / transform_ns
    metrics["harness.parallel_speedup"] = (
        statistics.median(untraced) / statistics.median(pooled) if pooled else 1.0
    )
    metrics["harness.write_csv_s"] = cli_tracer.self_seconds("harness.write_csv_s")
    metrics["cli.self_s"] = cli_tracer.self_seconds("cli.self_s")
    metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    metrics["trace.coverage"] = busy_ns * 1e-9 / sum(traced)
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}

    notes = {
        "harness.self_s": f"{n} traced points, {len(tracer.starts)} spans",
        "harness.parallel_speedup": (
            f"workers=1 {statistics.median(untraced):.4f} s / workers={wl.workers} "
            f"{statistics.median(pooled):.4f} s per point (medians)"
            if pooled else "one worker: 1 by definition"
        ),
        "transform.flops_computed": "computed from shapes: 5 N log2 N per row",
        "transform.bytes_computed": "computed from shapes: 16 B x N x (2 log2 N + 2) per row",
        "cli.self_s": f"one cli.main sweep of {CLI_WORKLOAD}",
    }
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = args.seed
    wl = workloads.load(args.workload)

    if args.trace:
        attempted, failed, metrics, notes = per_layer(wl, seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        attempted, failed, metrics, notes = end_to_end(wl, seed, args.seconds)
        units = END_TO_END_UNITS

    print(f"workload {wl.name}  seed {seed}  trace {args.trace}  workers {wl.workers}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {value:>14.6g} {units[name]}{note}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
