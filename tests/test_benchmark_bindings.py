"""The benchmark's wrappers still find every binding they wrap.

``perfbench/instrument.py`` looks package functions and model methods up
by name.  Installing its tracer and probes here, without running a
workload, fails fast when a rename or deletion leaves one of those names
behind, and checks that every wrapped binding is put back afterwards.
One tiny training run under the tracer checks that the optimizer step and
the backward pass stay separate calls, once per mini-batch, and one tiny
``compare`` under the probes checks the call shapes the probes wrap.
"""

import csv
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from otcforecast import autodiff, cli, harness, market
from otcforecast.clustering import load_assignment
from otcforecast.config import parse_config
from otcforecast.harness import TrainSpec
from otcforecast.market import Sample
from otcforecast.models import MODEL_KINDS, ModelConfig, build_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COMPARE_CONFIG = """\
[market]
days = 30
bonds = 6
periodic_dealers = 3
sparse_dealers = 2
dense_dealers = 1
periodic_min_period = 2
periodic_max_period = 4
periodic_min_bonds = 1
periodic_max_bonds = 3
dense_rate = 2.0
dense_min_bonds = 3
dense_max_bonds = 6

[window]
t_in = 3
t_out = 2
stride = 2

[split]
train_fraction = 0.8

[model]
d_model = 4
heads = 2
n_layers = 1
d_ff = 4
hidden = 4

[train]
epochs = 1
batch_size = 8

[run]
seed = 3
granularity = cluster
output_dir = {out}
"""


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


def test_every_traced_op_is_its_own_function(instrument):
    # Patcher rebinds by identity: an op bound under two names would be
    # wrapped twice, and its spans would merge with the other name's
    ops = [getattr(autodiff, name) for name in instrument.OPS]
    assert len({id(op) for op in ops}) == len(ops)
    assert [op.__name__ for op in ops] == list(instrument.OPS)


TINY_MODEL = ModelConfig(kind="FCSum", vocab_size=4, t_in=3, t_out=2, hidden=4)


def tiny_samples(count):
    rng = np.random.default_rng(0)
    return [Sample("D1", i, (rng.random((3, 8)) < 0.3).astype(np.uint8),
                   (rng.random((2, 8)) < 0.3).astype(np.uint8)) for i in range(count)]


def test_tracer_sees_one_backward_and_one_adam_step_per_batch(instrument):
    # the benchmark's autodiff.adam_s and autodiff.backward_s read these
    # spans; inlining either call into train() would zero them silently
    tracer = instrument.Tracer("tier1")
    patcher = instrument.Patcher()
    try:
        tracer.install(patcher)
        harness.train(build_model(TINY_MODEL), tiny_samples(4), TrainSpec(epochs=1, batch_size=2))
    finally:
        patcher.restore()
    within = tracer.calls_within("harness.train")
    assert tracer.totals()["harness.train"]["calls"] == 1
    assert within["autodiff.backward"] == 2
    assert within["autodiff.adam_step"] == 2


def test_evaluate_takes_three_positional_arguments():
    samples = tiny_samples(3)
    report = harness.evaluate(build_model(TINY_MODEL), samples, 0.5)
    assert report.tp + report.fp + report.fn + report.tn == len(samples) * 2 * 8
    assert 0.0 <= report.f1 <= 1.0


def test_probes_see_every_unit_and_every_scored_window_of_compare(instrument, tmp_path):
    # compare_cluster's train_samples_per_s and forecast_windows_per_s come
    # from these probes; a `compare` that went around the module-level
    # harness.train or harness.evaluate would zero them silently
    ini = tmp_path / "run.ini"
    out = tmp_path / "out"
    ini.write_text(COMPARE_CONFIG.format(out=out))
    for command in ("gen", "cluster"):
        assert cli.main([command, "-c", str(ini)]) == 0, command
    probes = instrument.Probes()
    evaluated_kinds = []

    def kind_recorder(evaluate):
        def recorded(model, *args, **kwargs):
            evaluated_kinds.append(model.config.kind)
            return evaluate(model, *args, **kwargs)
        return recorded

    patcher = instrument.Patcher()
    try:
        probes.install(patcher)
        patcher.function(harness, "evaluate", kind_recorder)
        assert cli.main(["compare", "-c", str(ini)]) == 0
    finally:
        patcher.restore()
    _, labels = load_assignment(out / "clusters.csv")
    units = len(set(labels.values()))
    assert Counter(unit["kind"] for unit in probes.units) == {kind: units for kind in MODEL_KINDS}
    # every scored window reaches the probes: a kind's "all" row counts
    # t_out x 2V decision cells per scored window
    cells = parse_config(str(ini)).t_out * 2 * market.load_histories(out / "histories.bin")[2]
    with open(out / cli.COMPARE_REPORT_FILE, newline="") as fh:
        scored = {row["model"]: sum(int(row[name]) for name in ("tp", "fp", "fn", "tn")) // cells
                  for row in csv.DictReader(fh) if row["cluster"] == "all"}
    assert all(scored.values())
    windows: Counter = Counter()
    for kind, entry in zip(evaluated_kinds, probes.evaluations, strict=True):
        windows[kind] += entry["windows"]
    assert windows == scored
