"""The repository's pytest configuration, run on a throwaway test file."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_passes():
    assert True
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis imports libcst only where it is installed")
def test_failing_property_fails_only_itself(tmp_path):
    # hypothesis imports libcst to print the falsifying example, and the
    # warning that import raises must not end the session
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, timeout=300,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    output = (run.stdout + run.stderr).decode("utf-8", errors="replace")
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
