"""The span tracer in perfbench/spans.py wraps layer calls where the program
looks them up; every name it wraps must exist there, or a traced benchmark
run fails with a KeyError long after the refactor that dropped it."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("targets", [spans.point_targets, spans.cli_targets])
def test_traced_names_are_defined_where_looked_up(targets):
    for owner, attr, _, _ in targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
