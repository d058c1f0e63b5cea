"""Golden sweep CSVs: the byte-exact output every refactor must keep.

Each case is a small sweep; tests/test_golden.py reruns it and compares the
write_csv bytes with <name>.csv in this directory. Regenerate only when a
change is meant to alter results, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import io
from pathlib import Path

from ofdmsim import ChannelModel, OfdmConfig, SweepSpec, run_sweep, write_csv

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


# N = 64 runs 7 iterations, more than one frame-tensor chunk and not a
# multiple of it; N = 4096 runs 2 iterations, one per chunk
CASES = {
    f"n{n}_{pattern}_q{order}": _case(n, pattern, order, 7 if n == 64 else 2)
    for n in (64, 4096)
    for pattern in ("comb", "block", "random")
    for order in (4, 8, 16)
}
CASES["n64_comb_q16_multipath_inside_cp"] = _case(64, "comb", 16, 7, _INSIDE_CP)
CASES["n64_random_q4_multipath_beyond_cp"] = _case(64, "random", 4, 7, _BEYOND_CP)
CASES["n64_random_q8_workers2"] = _case(64, "random", 8, 7, workers=2)


def render(name: str) -> bytes:
    spec, workers = CASES[name]
    buf = io.StringIO()
    write_csv(run_sweep(spec, workers=workers), buf)
    return buf.getvalue().encode()


def main() -> None:
    for name in CASES:
        (HERE / f"{name}.csv").write_bytes(render(name))
        print(f"wrote {name}.csv")


if __name__ == "__main__":
    main()
