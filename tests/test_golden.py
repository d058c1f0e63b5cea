"""Byte-for-byte CSV regression against the committed golden sweeps."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_csv_matches_golden(name):
    assert regen.render(name) == (GOLDEN / f"{name}.csv").read_bytes()


def test_workers_share_one_golden():
    assert (GOLDEN / "n64_random_q8_workers2.csv").read_bytes() == (
        GOLDEN / "n64_random_q8.csv"
    ).read_bytes()
