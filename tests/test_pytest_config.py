"""The repository's pytest configuration, run on a throwaway test file."""

import importlib.util
import os
import re
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


SKIPPED_TEST = """
import pytest


@pytest.mark.skip(reason="no golden file for this platform")
def test_skipped():
    pass
"""


def run_pytest(tmp_path, name, source):
    """Run pytest under the repository's configuration on one throwaway test
    file; returns its output."""
    (tmp_path / name).write_text(source, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), name],
        cwd=tmp_path, capture_output=True, timeout=300,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    return (run.stdout + run.stderr).decode("utf-8", errors="replace")


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis imports libcst only where it is installed")
def test_failing_property_fails_only_itself(tmp_path):
    # hypothesis imports libcst to print the falsifying example, and the
    # warning that import raises must not end the session
    output = run_pytest(tmp_path, "test_property.py", PROPERTY_TESTS)
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_every_run_names_its_skipped_tests(tmp_path):
    # without -rs on the command line, a skip and its reason are reported
    output = run_pytest(tmp_path, "test_skip.py", SKIPPED_TEST)
    assert re.search(r"SKIPPED \[1\] test_skip\.py:\d+: no golden file for this platform", output)
    assert "1 skipped" in output
