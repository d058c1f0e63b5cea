"""Benchmark workloads: configs from workloads.json, inputs from the seed.

A run visits points in a fixed order: point j is SNR snr_db[j % G] of sweep
(j // G) % sweeps, where G is the grid size. Sweep k uses the ofdmsim seed
derived from (workload seed, k), so one workload seed fixes every input and
the exact counts recorded in golden.json cover every point a run can visit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ofdmsim import ChannelModel, OfdmConfig, SweepSpec

HERE = Path(__file__).resolve().parent
_SPEC = json.loads((HERE / "workloads.json").read_text())

DEFAULT_SEED: int = _SPEC["default_seed"]
NAMES = tuple(_SPEC["workloads"])


def sweep_seed(seed: int, sweep: int) -> int:
    """ofdmsim seed of one sweep, hashed from the workload seed."""
    return int(np.random.SeedSequence([seed, sweep]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cfg: OfdmConfig
    channel: ChannelModel
    workers: int
    iterations: int
    symbols_per_iteration: int
    snr_db: tuple[float, ...]
    sweeps: int

    def specs(self, seed: int) -> list[SweepSpec]:
        """One SweepSpec per sweep; only the seed differs between them."""
        return [
            SweepSpec(
                cfg=self.cfg,
                iterations=self.iterations,
                symbols_per_iteration=self.symbols_per_iteration,
                seed=sweep_seed(seed, k),
                channel=self.channel,
            )
            for k in range(self.sweeps)
        ]

    def point(self, j: int) -> tuple[int, float]:
        """(sweep index, snr_db) of the j-th point of a run."""
        g = len(self.snr_db)
        return (j // g) % self.sweeps, self.snr_db[j % g]

    @property
    def subcarrier_symbols(self) -> int:
        """Subcarrier-symbols one point simulates: N x symbols x iterations."""
        return self.cfg.n_subchannels * self.symbols_per_iteration * self.iterations


def load(name: str) -> Workload:
    w = _SPEC["workloads"][name]
    cfg = OfdmConfig(
        n_subchannels=w["n_subchannels"],
        cp_len=w["cp_len"],
        pilot_pattern=w["pilot_pattern"],
        pilot_count=w["pilot_count"],
        mod_order=w["mod_order"],
    )
    channel = ChannelModel(tuple((complex(re, im), d) for d, re, im in w["taps"]))
    return Workload(
        name=name,
        why=w["why"],
        cfg=cfg,
        channel=channel,
        workers=w["workers"],
        iterations=w["iterations"],
        symbols_per_iteration=_SPEC["symbols_per_iteration"],
        snr_db=tuple(float(s) for s in w["snr_db"]),
        sweeps=_SPEC["sweeps"],
    )
