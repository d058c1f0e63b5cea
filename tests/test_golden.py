"""Byte-for-byte CSV regression against the committed golden sweeps."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_csv_matches_golden(name):
    assert regen.render(name) == (GOLDEN / f"{name}.csv").read_bytes()


def test_every_golden_csv_has_a_case_and_a_margin():
    # a CSV without a case would never be compared
    csvs = {path.stem for path in GOLDEN.glob("*.csv")}
    assert csvs == set(json.loads((GOLDEN / "margins.json").read_text())) == set(regen.CASES)


def test_workers_share_one_golden():
    assert (GOLDEN / "n64_random_q8_workers2.csv").read_bytes() == (
        GOLDEN / "n64_random_q8.csv"
    ).read_bytes()


# a count changes only when a decision input crosses a slicer threshold. Every golden input keeps at least this
# distance from one, over 1e5 times the 2.7e-15 by which a change of the float evaluation order moved them
MARGIN_FLOOR = 1e-9


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_decision_inputs_clear_every_threshold(name):
    got = regen.margin(name)
    assert got >= MARGIN_FLOOR
    # margins.json records what regen.py measured, to a relative 1e-6: a float change moves a margin by ~1e-15
    assert got == pytest.approx(json.loads((GOLDEN / "margins.json").read_text())[name], rel=1e-6)
