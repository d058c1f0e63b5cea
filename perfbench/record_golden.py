"""Record the exact per-point counts of every workload for the default seed.

Writes perfbench/golden.json: for each workload, for each sweep, one
[snr_db, bit_errors, bits_total] row per grid point. The benchmark requires
these counts exactly, so regenerate the file only at a commit whose counts
are known to be right (the counts must not change under a speed-only change).

Usage, from the repository root: python3 perfbench/record_golden.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from ofdmsim import run_ber_point  # noqa: E402


def main() -> None:
    golden = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        wl = workloads.load(name)
        golden["workloads"][name] = [
            [[snr, p.bit_errors, p.bits_total] for snr in wl.snr_db for p in [run_ber_point(spec, snr)]]
            for spec in wl.specs(workloads.DEFAULT_SEED)
        ]
        print(name, "recorded", file=sys.stderr)
    text = json.dumps(golden, separators=(",", ":"))
    (HERE / "golden.json").write_text(text.replace("]],[[", "]],\n[[") + "\n")


if __name__ == "__main__":
    main()
