"""The repository's pytest configuration, run on a throwaway test file."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

THROWAWAY_TESTS = """
import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_passes():
    assert True


@pytest.mark.skip(reason="no golden file for this platform")
def test_skipped():
    pass
"""


# the package this test imports lies in the checkout that holds the test
IMPORTED_FROM_THIS_CHECKOUT = """
from pathlib import Path

import otcforecast


def test_the_package_is_this_checkouts():
    assert Path(otcforecast.__file__).resolve().is_relative_to(Path(__file__).resolve().parents[1])
"""


def run_pytest(tmp_path, name, source, command=None, env=None):
    """Run pytest on one throwaway test file in ``tmp_path``: under the
    repository's configuration, or as ``command`` under ``env``; returns its output."""
    (tmp_path / name).write_text(source, encoding="utf-8")
    run = subprocess.run(
        command or [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "-c", str(PYPROJECT), "--rootdir", str(tmp_path), name],
        cwd=tmp_path, capture_output=True, timeout=300,
        env=env or {**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    return (run.stdout + run.stderr).decode("utf-8", errors="replace")


@pytest.fixture(scope="module")
def throwaway_output(tmp_path_factory):
    """The output of one pytest run under the repository's configuration on
    :data:`THROWAWAY_TESTS`, which both tests below read."""
    return run_pytest(tmp_path_factory.mktemp("throwaway"), "test_throwaway.py", THROWAWAY_TESTS)


def test_failing_property_fails_only_itself(throwaway_output):
    # where libcst is installed, hypothesis imports it to print the falsifying
    # example, and the warning that import raises must not end the session
    assert "INTERNALERROR" not in throwaway_output
    assert "1 failed, 1 passed" in throwaway_output


def test_every_run_names_its_skipped_tests(throwaway_output):
    # without -rs on the command line, a skip and its reason are reported
    assert re.search(r"SKIPPED \[1\] test_throwaway\.py:\d+: no golden file for this platform",
                     throwaway_output)
    assert "1 skipped" in throwaway_output


def test_the_mutant_runner_tests_the_copy(tmp_path):
    # pyproject's pythonpath, or an editable install of the checkout, must not put
    # the checkout's src ahead of the copy's: every mutant would survive
    copy = tmp_path / "checkout"
    mutants.copy_checkout(copy)
    name = "tests/test_imported_from.py"
    output = run_pytest(copy, name, IMPORTED_FROM_THIS_CHECKOUT,
                        command=mutants.pytest_command([name]), env=mutants.run_env(copy))
    assert f"PASSED {name}::test_the_package_is_this_checkouts" in output


def test_every_mutant_bites_on_one_substring_and_names_collected_tests(request):
    for mutant in mutants.MUTANTS:
        text = (ROOT / "src" / "otcforecast" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.what
        assert mutant.new != mutant.old and mutant.tests, mutant.what
    named = {test for mutant in mutants.MUTANTS for test in mutant.tests}
    collected, errors = {item.nodeid for item in request.session.items}, ""
    if not named <= collected:  # a run of some of the files: collect the named tests alone
        run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                              "-p", "no:cacheprovider", *sorted(named)], cwd=ROOT,
                             capture_output=True, text=True, encoding="utf-8", timeout=300)
        collected, errors = set(run.stdout.splitlines()), run.stderr
    assert named - collected == set(), errors
