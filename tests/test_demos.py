"""Every demo runs end to end and exits 0. Each runs in a fresh directory,
because the demos write their CSV and PNG files where they are started."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ["01_gray_qam_constellations.py"],
    ["02_ofdm_symbol_walkthrough.py"],
    ["03_cyclic_prefix_vs_multipath.py"],
    ["04_awgn_calibration.py"],
    ["05_ber_sweeps.py", "--subchannels", "256"],  # the sweeps of run_sweep, at one N
]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo[0].split("_")[0])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo[0]), *demo[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
