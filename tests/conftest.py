import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def reference():
    """perfbench/reference.py, loaded by path: the exact Gray-QAM BER (Cho & Yoon 2002) the benchmark checks against."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
