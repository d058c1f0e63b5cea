"""Command-line front end for BER sweeps.

Every flag can also come from a config file of "key = value" lines (keys are
the exact flag names without the leading dashes): each line becomes a
"--key=value" flag placed before the command line's, so command-line flags
win. Exit codes: 0 success, 2 bad configuration or failed run, 3 I/O failure.
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
    """A file path; open() takes no NUL byte."""
    if "\0" in raw:
        raise argparse.ArgumentTypeError("a path cannot contain a NUL byte")
    return raw


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "yes", "no", "1", "0"):
        raise argparse.ArgumentTypeError(f"expected true|false|yes|no|1|0, got {raw!r}")
    return raw.lower() in ("true", "yes", "1")


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as invalid configuration, in one line, not usage text."""

    def error(self, message):
        raise InvalidConfiguration(" ".join(message.split()))


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ofdmsim",
        description="Monte Carlo bit-error-rate sweeps for a QAM/OFDM link.",
        allow_abbrev=False,
    )
    p.add_argument("--subchannels", type=int, default=256, help="number of subcarriers N, power of 2 (default %(default)s)")
    p.add_argument("--order", type=int, choices=tuple(_AXIS_BITS), default=4, help="modulation order (default %(default)s)")
    p.add_argument("--snr-start", type=float, default=0.0, help="first SNR in dB (default %(default)s)")
    p.add_argument("--snr-stop", type=float, default=27.0, help="last SNR in dB (default %(default)s)")
    p.add_argument("--snr-step", type=float, default=3.0, help="SNR grid step in dB (default %(default)s)")
    p.add_argument("--iterations", type=int, default=100, help="Monte Carlo iterations per SNR (default %(default)s)")
    p.add_argument("--symbols-per-iter", type=int, default=10, help="OFDM symbols per iteration (default %(default)s)")
    p.add_argument("--cp-len", type=int, help="cyclic prefix length in samples (default N/8)")
    p.add_argument("--pilots", choices=PILOT_PATTERNS, default="comb", help="pilot pattern (default %(default)s)")
    p.add_argument("--pilot-count", type=int, help="pilot subcarriers per symbol, comb or random pilots (default N/8)")
    p.add_argument("--channel", type=_path, metavar="PATH", help="channel profile file (default: single unit tap)")
    p.add_argument("--seed", type=int, default=1, help="random seed (default %(default)s)")
    p.add_argument("--workers", type=int, default=1, help="worker processes per sweep (default %(default)s)")
    p.add_argument("--out", type=_path, metavar="PATH", help="write the sweep CSV here")
    p.add_argument("--config", type=_path, metavar="PATH", help="key = value file mirroring the flags above")
    p.add_argument(
        "--emit-constellation",
        type=_boolean,
        nargs="?",
        const=True,
        default=False,
        metavar="BOOL",
        help="dump the (label, point) table for --order as CSV and exit",
    )
    return p


def _config_flags(path: str) -> list[str]:
    """Each "key = value" line of a config file as a "--key=value" flag."""
    flags = []
    for lineno, line in read_lines(path):
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise InvalidConfiguration(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in ("config", "help"):
            raise InvalidConfiguration(f"{path}:{lineno}: {key!r} is not a config file key")
        flags.append(f"--{key}={value}")
    return flags


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args([*_config_flags(args.config), *argv])

    if args.emit_constellation:
        const = build_constellation(args.order)
        write_constellation_csv(const, args.out or sys.stdout)
        return 0

    if args.workers < 1:
        raise InvalidConfiguration(f"workers must be >= 1, got {args.workers}")
    if args.pilots == "block" and args.pilot_count is not None:
        raise InvalidConfiguration("block pilots fill whole symbols and take no pilot count")
    channel = load_channel_profile(args.channel) if args.channel else ChannelModel.identity()

    cfg = OfdmConfig(
        n_subchannels=args.subchannels,
        cp_len=args.cp_len,
        pilot_pattern=args.pilots,
        pilot_count=args.pilot_count,
        mod_order=args.order,
    )
    spec = SweepSpec(
        cfg=cfg,
        snr_start_db=args.snr_start,
        snr_stop_db=args.snr_stop,
        snr_step_db=args.snr_step,
        iterations=args.iterations,
        symbols_per_iteration=args.symbols_per_iter,
        seed=args.seed,
        channel=channel,
    )
    try:
        result = run_sweep(spec, workers=args.workers)
    except OfdmSimError as exc:  # the settings were valid: the run itself failed
        print(f"ofdmsim: simulation failed: {exc}", file=sys.stderr)
        return 2
    _print_summary(result)
    if args.out:
        write_csv(result, args.out)
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
