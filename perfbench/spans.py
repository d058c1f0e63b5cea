"""Span tracing around the calls into each ofdmsim layer, from outside src/.

A Tracer replaces public functions where the program looks them up (module
globals such as ofdmsim.harness.map_bits, and RngStream methods on the
class), records one span per call (name, start, end, parent) in memory and
puts every original back when it is uninstalled. Self time is a span's
duration minus the time its child spans cover; per-layer metrics are sums of
self times, so a function a later change stops calling drops out and its time
lands in its caller's self time.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def _transform_counts(counts: dict, args) -> None:
    # computed from the argument shape: 5 N log2 N flops per row; the log2 N
    # butterfly passes and one permutation pass each read and write every
    # complex sample (16 B) once
    shape = np.shape(args[0])
    n = shape[-1]
    rows = math.prod(shape[:-1])
    stages = n.bit_length() - 1
    counts["transform.rows"] += rows
    counts["transform.flops_computed"] += rows * 5 * n * stages
    counts["transform.bytes_computed"] += rows * 16 * n * (2 * stages + 2)


def _demap_counts(counts: dict, args) -> None:
    counts["modem.demapped_symbols"] += np.size(args[0])


def _draw_counts(per_call: int):
    def count(counts: dict, args) -> None:
        counts["numerics.uniforms_drawn"] += per_call * int(args[1])

    return count


def _call_count(key: str):
    def count(counts: dict, args) -> None:
        counts[key] += 1

    return count


def point_targets():
    """(owner, attribute, metric, counter) for every layer call of one BER point."""
    from ofdmsim import harness, transform
    from ofdmsim.numerics import RngStream

    return [
        (harness, "run_ber_point", "harness.self_s", None),
        (harness, "seeded_stream", "numerics.stream_s", None),
        (RngStream, "child", "numerics.stream_s", None),
        (RngStream, "bits", "numerics.bits_s", _draw_counts(1)),
        (RngStream, "uniforms", "numerics.uniforms_s", _draw_counts(1)),
        (RngStream, "gaussian_pairs", "numerics.gaussian_s", _draw_counts(2)),
        (transform, "fft", "transform.fft_s", _transform_counts),
        (transform, "ifft", "transform.ifft_s", _transform_counts),
        (harness, "map_bits", "modem.map_s", None),
        (harness, "demap_symbols", "modem.demap_s", _demap_counts),
        (harness, "allocate_subcarriers", "ofdm.allocate_s", _call_count("ofdm.allocate_calls")),
        (harness, "equalize", "ofdm.equalize_s", _call_count("ofdm.equalize_calls")),
        (harness, "extract_data", "ofdm.extract_s", None),
        (harness, "ofdm_modulate", "ofdm.modulate_self_s", None),
        (harness, "ofdm_demodulate", "ofdm.demodulate_self_s", None),
        (harness, "apply_multipath", "channel.multipath_s", None),
        (harness, "add_awgn", "channel.awgn_self_s", None),
        (harness, "signal_power", "channel.signal_power_s", None),
    ]


def cli_targets():
    """Targets for one cli.main run: the front end, the sweep and the CSV writer."""
    from ofdmsim import cli

    return [
        (cli, "main", "cli.self_s", None),
        (cli, "run_sweep", "harness.sweep_s", None),
        (cli, "write_csv", "harness.write_csv_s", None),
    ]


class Tracer:
    """Spans and per-metric self times for one set of wrapped call targets."""

    def __init__(self, targets):
        self.targets = targets
        self.metric_names = list(dict.fromkeys(metric for _, _, metric, _ in targets))
        self.self_ns: dict[str, int] = dict.fromkeys(self.metric_names, 0)
        self.counts: dict[str, int] = defaultdict(int)
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric: str, counter):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, self_ns, counts = self._stack, self.self_ns, self.counts
        name_id = self.metric_names.index(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, args)
            idx = len(starts)
            frame = [idx, 0]
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            stack.append(frame)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_ns[metric] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        for owner, attr, metric, counter in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, metric, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_seconds(self, metric: str) -> float:
        return self.self_ns[metric] * 1e-9

    def save(self, path) -> None:
        """Write every span recorded so far (metric name, start/end ns, parent index)."""
        np.savez(
            path,
            metric=np.asarray(self.metric_names),
            name=np.frombuffer(self.names, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )
