"""Trained results and compare outputs against tests/golden.json (see golden.py).

Counts must match exactly, losses and projections to a relative 1e-9, and
the SHA-256s exactly where the numpy version and the runtime OpenBLAS core
are those the file was written under; ``gen``'s, which no BLAS product
enters, wherever the numpy version is.
"""

import math

import pytest

import golden

REL = 1e-9


@pytest.fixture(scope="module")
def runs():
    """(fresh results, golden results)."""
    return golden.compute(), golden.load()


def test_golden_file_covers_every_kind_and_granularity(runs):
    fresh, pinned = runs
    assert list(pinned["kinds"]) == list(fresh["kinds"])
    assert list(pinned["compare"]) == list(fresh["compare"])
    assert list(pinned["gen"]) == list(fresh["gen"])
    # each seed draws its own market
    assert len({digests["records.csv"] for digests in fresh["gen"].values()}) == len(fresh["gen"])


def test_counts_losses_and_projections_match(runs):
    fresh, pinned = runs
    moved = []
    for kind, want in pinned["kinds"].items():
        got = fresh["kinds"][kind]
        if got["counts"] != want["counts"]:
            moved.append(f"{kind} counts {got['counts']} != {want['counts']}")
        for key in ("losses", "params_projections", "forecast_projections"):
            if len(got[key]) != len(want[key]) or not all(
                    math.isclose(a, b, rel_tol=REL) for a, b in zip(got[key], want[key])):
                moved.append(f"{kind} {key} {got[key]} != {want[key]}")
    assert not moved, "\n".join(moved)


def test_digests_match(runs):
    fresh, pinned = runs
    differs = [f"{key} {fresh['environment'][key]} (golden.json has {value})"
               for key, value in pinned["environment"].items()
               if fresh["environment"][key] != value]
    if differs:
        pytest.skip("SHA-256s not compared: this run has " + " and ".join(differs))
    moved = [f"{kind} {key}" for kind, want in pinned["kinds"].items()
             for key in ("params_sha256", "forecast_sha256")
             if fresh["kinds"][kind][key] != want[key]]
    moved += [f"{granularity} {name}" for granularity, want in pinned["compare"].items()
              for name, digest in want.items() if fresh["compare"][granularity][name] != digest]
    assert not moved, "moved: " + ", ".join(moved)


def test_gen_digests_match(runs):
    fresh, pinned = runs
    if fresh["environment"]["numpy"] != pinned["environment"]["numpy"]:
        pytest.skip(f"gen SHA-256s not compared: this run has numpy "
                    f"{fresh['environment']['numpy']} (golden.json has "
                    f"{pinned['environment']['numpy']})")
    moved = [f"seed {seed} {name}" for seed, want in pinned["gen"].items()
             for name, digest in want.items() if fresh["gen"][seed][name] != digest]
    assert not moved, "moved: " + ", ".join(moved)
