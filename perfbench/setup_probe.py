"""Set-up time of one workload in a fresh interpreter.

Times `import ofdmsim` plus the workload's first point (twiddle and
bit-reversal caches, constellation build and, with workers > 1, the first
pool spawn), then prints {"setup_s", "bit_errors", "bits_total"} as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports ofdmsim and numpy)
from ofdmsim import harness  # noqa: E402

wl = workloads.load(sys.argv[1])
spec = wl.specs(int(sys.argv[2]))[0]
point = harness.run_ber_point(spec, wl.snr_db[0], wl.workers)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "bit_errors": point.bit_errors, "bits_total": point.bits_total}))
