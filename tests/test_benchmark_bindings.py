"""The benchmark's wrappers still find every binding they wrap.

``perfbench/instrument.py`` looks package functions and model methods up
by name.  Installing its tracer and probes here, without running a
workload, fails fast when a rename or deletion leaves one of those names
behind, and checks that every wrapped binding is put back afterwards.
One tiny training run under the tracer checks that the optimizer step and
the backward pass stay separate calls, once per mini-batch.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import otcforecast.cli  # noqa: F401  - the patcher also rebinds names imported by cli
from otcforecast import autodiff, harness
from otcforecast.harness import TrainSpec
from otcforecast.market import Sample
from otcforecast.models import ModelConfig, build_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def instrument(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument

    return instrument


def bindings(instrument) -> dict:
    """Every attribute of the package's modules and of the model classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "otcforecast" or mod_name.startswith("otcforecast."):
            out.update({(mod_name, attr): value for attr, value in vars(mod).items()})
    for cls in instrument.MODEL_CLASSES:
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_and_probes_install_and_restore(instrument):
    before = bindings(instrument)
    originals = (harness.train, harness.evaluate, autodiff.backward, autodiff.adam_step)
    patcher = instrument.Patcher()
    try:
        instrument.Tracer("tier1").install(patcher)
        instrument.Probes().install(patcher)
        wrapped = (harness.train, harness.evaluate, autodiff.backward, autodiff.adam_step)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        patcher.restore()
    after = bindings(instrument)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_tracer_sees_one_backward_and_one_adam_step_per_batch(instrument):
    # the benchmark's autodiff.adam_s and autodiff.backward_s read these
    # spans; inlining either call into train() would zero them silently
    config = ModelConfig(kind="FCSum", vocab_size=4, t_in=3, t_out=2, hidden=4)
    rng = np.random.default_rng(0)
    samples = [Sample("D1", i, (rng.random((3, 8)) < 0.3).astype(np.uint8),
                      (rng.random((2, 8)) < 0.3).astype(np.uint8)) for i in range(4)]
    tracer = instrument.Tracer("tier1")
    patcher = instrument.Patcher()
    try:
        tracer.install(patcher)
        harness.train(build_model(config), samples, TrainSpec(epochs=1, batch_size=2))
    finally:
        patcher.restore()
    within = tracer.calls_within("harness.train")
    assert tracer.totals()["harness.train"]["calls"] == 1
    assert within["autodiff.backward"] == 2
    assert within["autodiff.adam_step"] == 2
