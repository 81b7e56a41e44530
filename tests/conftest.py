"""Fixtures every test module shares."""

import pytest

import otcforecast.autodiff as ad


@pytest.fixture(autouse=True)
def fresh_tape():
    """Every test starts and ends with an empty autodiff tape."""
    ad.reset_tape()
    yield
    ad.reset_tape()
