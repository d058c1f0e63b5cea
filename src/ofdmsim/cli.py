"""Command-line front end for BER sweeps.

Every flag can also come from a config file of "key = value" lines (keys are
the flag names without the leading dashes); flags given on the command line
override file values. Exit codes: 0 success, 2 invalid configuration,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .channel import ChannelModel, load_channel_profile, read_lines
from .errors import InvalidConfiguration, OfdmSimError
from .harness import SweepSpec, run_sweep, write_csv
from .modem import _AXIS_BITS, build_constellation, write_constellation_csv
from .ofdm import PILOT_PATTERNS, OfdmConfig


def _path(raw: str) -> str:
    """A path from a config file; open() takes no NUL byte."""
    if "\0" in raw:
        raise ValueError("a path cannot contain a NUL byte")
    return raw


# every setting: (type of its config-file value, default)
_SETTINGS = {
    "subchannels": (int, 256),
    "order": (int, 4),
    "snr_start": (float, 0.0),
    "snr_stop": (float, 27.0),
    "snr_step": (float, 3.0),
    "iterations": (int, 100),
    "symbols_per_iter": (int, 10),
    "cp_len": (int, None),
    "pilots": (str, "comb"),
    "pilot_count": (int, None),
    "channel": (_path, None),
    "seed": (int, 1),
    "workers": (int, 1),
    "out": (_path, None),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ofdmsim",
        description="Monte Carlo bit-error-rate sweeps for a QAM/OFDM link.",
    )
    p.add_argument("--subchannels", type=int, help="number of subcarriers N, power of 2 (default 256)")
    p.add_argument("--order", type=int, choices=tuple(_AXIS_BITS), help="modulation order (default 4)")
    p.add_argument("--snr-start", type=float, help="first SNR in dB (default 0)")
    p.add_argument("--snr-stop", type=float, help="last SNR in dB (default 27)")
    p.add_argument("--snr-step", type=float, help="SNR grid step in dB (default 3)")
    p.add_argument("--iterations", type=int, help="Monte Carlo iterations per SNR (default 100)")
    p.add_argument("--symbols-per-iter", type=int, help="OFDM symbols per iteration (default 10)")
    p.add_argument("--cp-len", type=int, help="cyclic prefix length in samples (default N/8)")
    p.add_argument("--pilots", choices=PILOT_PATTERNS, help="pilot pattern (default comb)")
    p.add_argument("--pilot-count", type=int, help="pilot subcarriers per symbol (default N/8)")
    p.add_argument("--channel", metavar="PATH", help="channel profile file (default: single unit tap)")
    p.add_argument("--seed", type=int, help="random seed (default 1)")
    p.add_argument("--workers", type=int, help="worker processes per SNR point (default 1)")
    p.add_argument("--out", metavar="PATH", help="write the sweep CSV here")
    p.add_argument("--config", metavar="PATH", help="key = value file mirroring the flags above")
    p.add_argument(
        "--emit-constellation",
        action="store_true",
        help="dump the (label, point) table for --order as CSV and exit",
    )
    return p


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfiguration(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_settings(args: argparse.Namespace, file_values: dict) -> dict:
    settings = {key: default for key, (_, default) in _SETTINGS.items()}
    emit = False
    for key, raw in file_values.items():
        if key == "emit_constellation":
            if raw.lower() not in ("true", "false", "0", "1", "yes", "no"):
                raise InvalidConfiguration(f"emit-constellation must be boolean, got {raw!r}")
            emit = raw.lower() in ("true", "1", "yes")
            continue
        if key not in settings:
            raise InvalidConfiguration(f"unknown config key {key!r}")
        try:
            settings[key] = _SETTINGS[key][0](raw)
        except ValueError as exc:
            raise InvalidConfiguration(f"bad value for {key!r}: {raw!r}") from exc
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    settings["emit_constellation"] = args.emit_constellation or emit
    return settings


def _print_summary(result) -> None:
    spec = result.spec
    cfg = spec.cfg
    print(
        f"# N={cfg.n_subchannels} order={cfg.mod_order} pilots={cfg.pilot_pattern}"
        f" pilot_count={cfg.pilot_count} cp_len={cfg.cp_len}"
        f" iterations={spec.iterations} symbols/iter={spec.symbols_per_iteration}"
        f" seed={spec.seed}"
    )
    print(f"{'snr_db':>8} {'eb_n0_db':>9} {'ber':>12} {'errors':>10} {'bits':>12} {'analytic':>12}")
    for p in result.points:
        analytic = f"{p.analytic_ber:.4e}" if p.analytic_ber is not None else "-"
        print(
            f"{p.snr_db:8.2f} {p.eb_n0_db:9.2f} {p.ber:12.4e}"
            f" {p.bit_errors:10d} {p.bits_total:12d} {analytic:>12}"
        )


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    file_values = _parse_config_file(args.config) if args.config else {}
    settings = _merge_settings(args, file_values)

    if settings["emit_constellation"]:
        const = build_constellation(settings["order"])
        if settings["out"]:
            write_constellation_csv(const, settings["out"])
        else:
            write_constellation_csv(const, sys.stdout)
        return 0

    if settings["workers"] < 1:
        raise InvalidConfiguration(f"workers must be >= 1, got {settings['workers']}")
    channel = ChannelModel.identity()
    if settings["channel"]:
        channel = load_channel_profile(settings["channel"])

    cfg = OfdmConfig(
        n_subchannels=settings["subchannels"],
        cp_len=settings["cp_len"],
        pilot_pattern=settings["pilots"],
        pilot_count=settings["pilot_count"],
        mod_order=settings["order"],
    )
    spec = SweepSpec(
        cfg=cfg,
        snr_start_db=settings["snr_start"],
        snr_stop_db=settings["snr_stop"],
        snr_step_db=settings["snr_step"],
        iterations=settings["iterations"],
        symbols_per_iteration=settings["symbols_per_iter"],
        seed=settings["seed"],
        channel=channel,
    )
    result = run_sweep(spec, workers=settings["workers"])
    _print_summary(result)
    if settings["out"]:
        write_csv(result, settings["out"])
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv)
    except OfdmSimError as exc:
        print(f"ofdmsim: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ofdmsim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
