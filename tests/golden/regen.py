"""Golden sweep CSVs: the byte-exact output every refactor must keep.

Each case is a small sweep; tests/test_golden.py reruns it and compares the
write_csv bytes with <name>.csv in this directory. Regenerate only when a
change is meant to alter results, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py

That also rewrites margins.json: each case's smallest decision margin, the
distance of the decision input nearest to a slicer threshold. A float change
that moves no decision input by that much cannot change a count, so the CSV
bytes hold under it. `regen.py --margins` rewrites and prints only those.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from ofdmsim import ChannelModel, OfdmConfig, SweepSpec, harness, run_sweep, write_csv

HERE = Path(__file__).resolve().parent

# delays within the 8-sample prefix of N = 64, and one past it
_INSIDE_CP = ((1.0, 0), (0.4 - 0.2j, 3), (0.2j, 7))
_BEYOND_CP = ((1.0, 0), (0.3 + 0.1j, 5), (0.25j, 13))


def _case(n, pattern, order, iterations, taps=((1.0, 0),), workers=1):
    cfg = OfdmConfig(n_subchannels=n, pilot_pattern=pattern, mod_order=order)
    spec = SweepSpec(
        cfg=cfg,
        snr_start_db=0.0,
        snr_stop_db=10.0,
        snr_step_db=5.0,
        iterations=iterations,
        seed=5,
        channel=ChannelModel(taps),
    )
    return spec, workers


# N = 64 runs 7 iterations, all in one frame-tensor chunk (a chunk holds 45
# there); N = 4096 runs 2 iterations, one per chunk. n64_random_q8_two_chunks
# runs 50, so that a golden crosses a chunk boundary at small N: chunks of 45 and 5
CASES = {
    f"n{n}_{pattern}_q{order}": _case(n, pattern, order, 7 if n == 64 else 2)
    for n in (64, 4096)
    for pattern in ("comb", "block", "random")
    for order in (4, 8, 16)
}
CASES["n64_comb_q16_multipath_inside_cp"] = _case(64, "comb", 16, 7, _INSIDE_CP)
CASES["n64_random_q4_multipath_beyond_cp"] = _case(64, "random", 4, 7, _BEYOND_CP)
CASES["n64_random_q8_workers2"] = _case(64, "random", 8, 7, workers=2)
CASES["n64_random_q8_two_chunks"] = _case(64, "random", 8, 50)


def render(name: str) -> bytes:
    spec, workers = CASES[name]
    buf = io.StringIO()
    write_csv(run_sweep(spec, workers=workers), buf)
    return buf.getvalue().encode()


def margin(name: str) -> float:
    """Smallest |x - t| over the case's decision inputs x, on each axis, and that axis's thresholds t.
    It runs on one worker, where the spy on harness.demap_symbols sees every call; workers never change counts."""
    seen, demap = [], harness.demap_symbols

    def spy(symbols, c):
        for x, t in zip((symbols.real, symbols.imag), c.thresholds):
            seen.append(np.abs(x[:, None] - t).min())
        return demap(symbols, c)

    with mock.patch.object(harness, "demap_symbols", spy):
        run_sweep(CASES[name][0])
    return float(min(seen))


def write_margins() -> None:
    margins = {name: margin(name) for name in CASES}
    (HERE / "margins.json").write_text(json.dumps(margins, indent=1) + "\n")
    for name, m in sorted(margins.items(), key=lambda item: item[1]):
        print(f"{name:36} {m:.3e}")


def main() -> None:
    if "--margins" not in sys.argv[1:]:
        for name in CASES:
            (HERE / f"{name}.csv").write_bytes(render(name))
            print(f"wrote {name}.csv")
    write_margins()


if __name__ == "__main__":
    main()
