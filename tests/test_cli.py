import contextlib
import io
import math
import multiprocessing
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsim import harness
from ofdmsim.cli import _build_parser, main
from ofdmsim.errors import LengthMismatch


def _args(out, extra=()):
    return [
        "--subchannels", "64",
        "--order", "4",
        "--snr-start", "0",
        "--snr-stop", "6",
        "--snr-step", "3",
        "--iterations", "2",
        "--symbols-per-iter", "2",
        "--out", str(out),
        *extra,
    ]


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert main(_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,eb_n0_db,ber,bit_errors,bits_total,analytic_ber"
    assert len(lines) == 4  # header + 0, 3, 6 dB
    captured = capsys.readouterr().out
    assert "snr_db" in captured
    assert "N=64" in captured


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_args(a, ("--seed", "9"))) == 0
    assert main(_args(b, ("--seed", "9"))) == 0
    assert a.read_bytes() == b.read_bytes()


def test_channel_profile_flag(tmp_path):
    profile = tmp_path / "channel.txt"
    profile.write_text("0 1.0 0.0\n2 0.3 0.1\n")
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--channel", str(profile)))) == 0
    assert out.exists()


def test_missing_channel_profile_is_io_failure(tmp_path):
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--channel", str(tmp_path / "nope.txt")))) == 3


def test_malformed_channel_profile_is_config_failure(tmp_path):
    profile = tmp_path / "channel.txt"
    profile.write_text("0 1.0\n")
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--channel", str(profile)))) == 2


def test_invalid_configuration_exit_code(tmp_path):
    out = tmp_path / "result.csv"
    args = _args(out)
    args[args.index("--subchannels") + 1] = "100"  # not a power of two
    assert main(args) == 2


def test_bad_flag_value_exits_two(tmp_path, capsys):
    assert main(["--order", "5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")


def _one_line_exit_two(capsys, code, out):
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")
    assert not out.exists()


def _conf_argv(tmp_path, out, line):
    """A --config sweep whose file holds the small sizes of _args, then line."""
    flags = _args(out)
    conf = tmp_path / "sweep.conf"
    conf.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])) + line + "\n")
    return ["--config", str(conf)]


@pytest.mark.parametrize(
    "key, value",
    [("order", "5"), ("iterations", "many"), ("workers", "0"), ("ord", "8"), ("bogus", "1"),
     ("emit-constellation", "maybe")],
)
def test_bad_flag_and_bad_file_value_exit_two_alike(tmp_path, capsys, key, value):
    out = tmp_path / "result.csv"
    _one_line_exit_two(capsys, main(_args(out, (f"--{key}={value}",))), out)
    _one_line_exit_two(capsys, main(_conf_argv(tmp_path, out, f"{key} = {value}")), out)


@pytest.mark.parametrize("key", ["config", "help"])
def test_config_file_cannot_set_config_or_help(tmp_path, capsys, key):
    out = tmp_path / "result.csv"
    _one_line_exit_two(capsys, main(_conf_argv(tmp_path, out, f"{key} = x")), out)


def test_block_pilots_take_no_pilot_count(tmp_path, capsys):
    out = tmp_path / "result.csv"
    with mock.patch("ofdmsim.cli.run_sweep", side_effect=AssertionError("swept")):
        _one_line_exit_two(capsys, main(_args(out, ("--pilots", "block", "--pilot-count", "0"))), out)
        argv = _conf_argv(tmp_path, out, "pilots = block\npilot-count = 8")
        _one_line_exit_two(capsys, main(argv), out)
    assert capsys.readouterr().out == ""
    assert main(_args(out, ("--pilots", "block"))) == 0


def test_readme_flags_paragraph_names_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Flags:.*?(?=\n\n)", readme, re.S | re.M).group()
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    options = {s for a in _build_parser()._actions for s in a.option_strings if s.startswith("--")}
    assert documented == options - {"--help"}


@pytest.mark.parametrize("flag", ["--snr-start", "--snr-stop", "--snr-step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_snr_exits_two(tmp_path, capsys, flag, value):
    out = tmp_path / "result.csv"
    assert main(_args(out, (f"{flag}={value}",))) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")
    assert not out.exists()


def test_unwritable_output_is_io_failure(tmp_path):
    out = tmp_path / "missing_dir" / "result.csv"
    assert main(_args(out)) == 3


def test_config_file_and_flag_override(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    out = tmp_path / "result.csv"
    conf.write_text(
        "# sweep settings\n"
        "subchannels = 64\n"
        "order = 16\n"
        "snr-start = 0\n"
        "snr-stop = 3\n"
        "snr-step = 3\n"
        "iterations = 2\n"
        "symbols-per-iter = 2\n"
        f"out = {out}\n"
    )
    assert main(["--config", str(conf), "--order", "8"]) == 0  # flag wins
    assert "order=8" in capsys.readouterr().out
    assert out.exists()


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("bogus = 1\n")
    assert main(["--config", str(conf)]) == 2


def test_config_file_bad_value(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("iterations = many\n")
    assert main(["--config", str(conf)]) == 2


def test_missing_config_file_is_io_failure(tmp_path):
    assert main(["--config", str(tmp_path / "none.conf")]) == 3


def test_emit_constellation_stdout(capsys):
    assert main(["--emit-constellation", "--order", "16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,bits,real,imag"
    assert len(lines) == 17
    assert lines[1].startswith("0,0000,")


def test_emit_constellation_to_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["--emit-constellation", "--order", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    s2 = 1 / math.sqrt(2)
    assert lines[1] == f"0,00,{s2!r},{s2!r}"


def test_spectral_null_fails_before_any_sweep(tmp_path, capsys):
    profile = tmp_path / "null.txt"
    profile.write_text("0 1 0\n1 1 0\n")
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--channel", str(profile), "--pilot-count", "0"))) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")
    assert captured.out == ""
    assert not out.exists()


def test_error_after_the_sweep_starts_is_a_failed_simulation(tmp_path, capsys):
    out = tmp_path / "result.csv"
    with mock.patch.object(harness, "_frame_chunk", side_effect=LengthMismatch("chunk of 3 for 4")):
        assert main(_args(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["ofdmsim: simulation failed: chunk of 3 for 4"]
    assert captured.out == ""
    assert not out.exists()


def test_memory_error_after_the_sweep_starts_is_a_failed_simulation(tmp_path, capsys):
    out = tmp_path / "result.csv"
    with mock.patch.object(harness, "_frame_chunk", side_effect=MemoryError):
        assert main(_args(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["ofdmsim: simulation failed: out of memory"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [("--subchannels", str(2**50)), ("--subchannels", "64", "--symbols-per-iter", str(10**15))]
)
def test_frame_too_big_for_memory_exits_two(tmp_path, capsys, flags):
    # arrays of 8 and 57 PiB: past a 128 TiB user address space, so no host can grant them lazily
    out = tmp_path / "result.csv"
    _one_line_exit_two(capsys, main([*flags, "--out", str(out)]), out)


def _chunk_exiting_in_a_helper(spec, const, h, task):
    # module level, so that a helper can unpickle it by name; never ends the test process itself
    if multiprocessing.parent_process() is None:
        raise AssertionError("ran outside a helper")
    os._exit(1)


def test_helper_lost_mid_call_exits_two(tmp_path, capfd):
    # capfd, not capsys: a helper writes to the stderr file it inherited, not to sys.stderr
    out = tmp_path / "result.csv"
    with mock.patch("os.sched_getaffinity", return_value={0, 1}, create=True), \
            mock.patch.object(harness, "_HELPER_MIN_SAMPLES", 1), \
            mock.patch.object(harness, "_frame_chunk", _chunk_exiting_in_a_helper):
        assert main(_args(out, ("--workers", "2"))) == 2
    captured = capfd.readouterr()
    assert captured.err.splitlines() == ["ofdmsim: simulation failed: a helper process exited during the call (EOFError)"]
    assert captured.out == ""
    assert not out.exists()
    assert harness._helpers[os.getpid()][1] == []


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
def test_seed_outside_64_bits_exits_two_before_any_draw(tmp_path, capsys, seed):
    out = tmp_path / "result.csv"
    with mock.patch.object(harness, "seeded_stream", side_effect=AssertionError("drew")):
        _one_line_exit_two(capsys, main(_args(out, (f"--seed={seed}",))), out)


def test_snr_whose_noise_power_overflows_exits_two(tmp_path, capsys):
    out = tmp_path / "result.csv"
    _one_line_exit_two(capsys, main(_args(out, ("--snr-start=-1e308", "--snr-stop=-1e308"))), out)


def _summary_rows(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["snr_db", "eb_n0_db", "ber", "errors", "bits", "analytic"]
    return lines[1], lines[2:]


def test_huge_snr_summary_rows_fit_the_header(tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--snr-start=1e308", "--snr-stop=1e308"))) == 0
    header, rows = _summary_rows(capsys)
    assert len(rows) == 1
    assert all(len(row) <= len(header) for row in rows)
    assert out.read_text().splitlines()[1].startswith("1e+308,")


def test_default_grid_summary_keeps_two_decimal_columns(tmp_path, capsys):
    out = tmp_path / "result.csv"
    argv = ["--subchannels", "64", "--iterations", "1", "--symbols-per-iter", "1", "--out", str(out)]
    assert main(argv) == 0
    header, rows = _summary_rows(capsys)
    csv_rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(csv_rows) == 10
    for row, (snr_db, eb_n0_db, *_) in zip(rows, csv_rows):
        assert row.startswith(f"{float(snr_db):8.2f} {float(eb_n0_db):9.2f} ")
        assert len(row) == len(header)


def test_tiny_snr_step_exits_two(tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--snr-step", "1e-300"))) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_workers_flag_keeps_csv_bytes(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(_args(one, ("--pilots", "random", "--workers", "1"))) == 0
    assert main(_args(two, ("--pilots", "random", "--workers", "2"))) == 0
    assert one.read_bytes() == two.read_bytes()


def test_workers_config_key(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("workers = 2\n")
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(_args(one)) == 0
    assert main(["--config", str(conf), *_args(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_workers_below_one_exits_two(tmp_path, capsys, value):
    out = tmp_path / "result.csv"
    assert main(_args(out, ("--workers", value))) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"workers = {value}\n")
    assert main(["--config", str(conf), *_args(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, content", [("--config", b"order = 4\n\xff\n"), ("--channel", b"0 1 0\n\xff\n")]
)
def test_undecodable_file_exits_two(tmp_path, capsys, flag, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    out = tmp_path / "result.csv"
    assert main(_args(out, (flag, str(path)))) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")
    assert not out.exists()


@pytest.mark.parametrize("key", ["channel", "out"])
def test_nul_byte_in_config_path_exits_two(tmp_path, capsys, key):
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"subchannels = 8\niterations = 1\nsnr-stop = 0\n{key} = {tmp_path}/a\0b\n")
    assert main(["--config", str(conf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ofdmsim: invalid configuration:")


# The last line of each of these keys in a fuzzed file takes one of its
# values, or one of _BAD for at most one key; each is small or rejected before
# any Monte Carlo draw, so no example sweeps more than 64 subchannels x 3
# symbols x 2 iterations x 7 SNRs.
_SIZES = {
    "subchannels": ["8", "64"],
    "iterations": ["1", "2"],
    "symbols-per-iter": ["1", "3"],
    "snr-start": ["-3", "0", "2.5"],
    "snr-stop": ["3", "0"],
    "snr-step": ["1", "2.5"],
}
_BAD = ["", "nan", "inf", "-inf", "-1", "0", "1e999", "48", "x"]
_KEYS = st.one_of(
    st.sampled_from(
        ["order", "cp-len", "pilots", "pilot-count", "channel", "seed", "workers",
         "emit-constellation", "snr-start", "iterations", "subchannels", "config"]
    ),
    st.text(max_size=8),
)
_VALUES = st.one_of(
    st.sampled_from([*_BAD, "4", "16", "true", "comb", "random"]),
    st.text(max_size=12),
    st.binary(max_size=12),
)


def _utf8(s) -> bytes:
    # a lone surrogate becomes bytes that do not decode as UTF-8
    return s if isinstance(s, bytes) else s.encode("utf-8", "surrogatepass")


def _arg(s) -> str:
    # bytes reach sys.argv decoded as the file system encoding decodes them
    return os.fsdecode(s) if isinstance(s, bytes) else s


@settings(max_examples=50, deadline=None)
@given(
    lines=st.lists(st.tuples(_KEYS, _VALUES), max_size=4),
    sizes=st.fixed_dictionaries({key: st.sampled_from(values) for key, values in _SIZES.items()}),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from(list(_SIZES)), st.sampled_from(_BAD))),
    out_name=st.text(st.characters(blacklist_characters="/"), max_size=8),
    via=st.sampled_from(["file", "argv"]),
)
def test_fuzzed_config_file_exits_with_a_documented_code(lines, sizes, bad, out_name, via):
    """The same drawn lines as a --config file or as --key=value flags."""
    if bad:
        sizes[bad[0]] = bad[1]
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "sweep.conf"
        # out comes last, so every example writes only inside the temporary directory
        tail = [*sizes.items(), ("out", f"{tmp}/{out_name}")]
        conf.write_bytes(b"".join(_utf8(k) + b" = " + _utf8(v) + b"\n" for k, v in [*lines, *tail]))
        argv = ["--config", str(conf)]
        if via == "argv":
            argv = [f"--{_arg(k)}={_arg(v)}" for k, v in [*lines, *tail]]
        stderr = io.StringIO()
        one_cpu = mock.patch("os.sched_getaffinity", return_value={0}, create=True)
        with one_cpu, mock.patch("os.cpu_count", return_value=1), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    pytest.fail(f"SystemExit({exc.code}) escaped main for {argv}")
    assert code in (0, 2, 3)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1
