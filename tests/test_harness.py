"""Training loop, metrics, layer statistics, and granularity experiment."""

import csv
import dataclasses
import itertools
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor
from otcforecast.config import RunConfig, parse_config
from otcforecast import harness
from otcforecast.errors import ConfigurationError, ContractError, NumericError, ShapeMismatchError
from otcforecast.harness import (
    EVAL_MODES,
    GRANULARITIES,
    EvalReport,
    TrainSpec,
    epochs,
    evaluate,
    layer_signal_stats,
    micro_prf,
    score_units,
    tier_rows,
    train,
    training_units,
    write_reports,
)
from otcforecast.market import MarketSpec, Sample
from otcforecast.models import MODEL_KINDS, ModelConfig, Parameters, build_model
from otcforecast.seeding import rng_for

from helpers import FixedModel, initial_loss, toy_config


# a value its RunConfig field refuses, for every setting a spec takes; seed and
# vocab_size are no such setting, and a range key sets one end of a *_range field
REFUSED = [
    ("days", 0), ("bonds", -1), ("periodic_dealers", -1), ("sparse_dealers", -1),
    ("dense_dealers", -1), ("periodic_min_period", 0), ("periodic_max_period", 0),
    ("periodic_min_bonds", -1), ("periodic_max_bonds", -1), ("periodic_buy_prob", 1.5),
    ("sparse_rate", -0.1), ("dense_rate", -1.0), ("dense_min_bonds", -1),
    ("dense_max_bonds", -1), ("cancellation_rate", 2.0), ("kind", "MLP"), ("t_in", 0),
    ("t_out", 0), ("d_model", 0), ("heads", 0), ("n_layers", 0), ("d_ff", 0), ("hidden", 0),
    ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.01),
]
RANGE_FIELDS = {
    "periodic_min_period": "periodic_period_range", "periodic_max_period": "periodic_period_range",
    "periodic_min_bonds": "periodic_bonds_range", "periodic_max_bonds": "periodic_bonds_range",
    "dense_min_bonds": "dense_bonds_range", "dense_max_bonds": "dense_bonds_range",
}
SPEC_OF = {f.name: spec for spec in (MarketSpec, ModelConfig, TrainSpec)
           for f in dataclasses.fields(spec)}


# the C7 TransPPRZ: 44,104 parameters, so Adam runs three blocks
C7_PPRZ = ModelConfig("TransPPRZ", vocab_size=20, t_in=5, t_out=5, d_model=32, d_ff=64)


V = 4  # the vocabulary of the toy models and samples


def random_samples(n, vocab_size=V, t_in=3, t_out=2, seed=0, dealer="D1", density=0.3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = (rng.random((t_in, 2 * vocab_size)) < density).astype(np.uint8)
        t = (rng.random((t_out, 2 * vocab_size)) < density).astype(np.uint8)
        out.append(Sample(dealer, i, x, t))
    return out


def per_tensor_adam(params, grads, moments, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Bias-corrected Adam with one set of array ops per parameter tensor:
    the reference for the flat, in-place ``autodiff.adam_step``."""
    bias1 = 1.0 - b1 ** step
    bias2 = 1.0 - b2 ** step
    for p, g, (m, v) in zip(params, grads, moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.values -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class TestMicroPrf:
    @pytest.mark.parametrize("counts, expected", [
        ((0, 0, 0), (0.0, 0.0, 0.0)),  # the empty convention
        ((5, 0, 0), (1.0, 1.0, 1.0)),
        ((3, 1, 2), (0.75, 0.6, 2 * 0.45 / 1.35)),
    ], ids=["empty", "perfect", "formula"])
    def test_hand_values(self, counts, expected):
        assert micro_prf(*counts) == pytest.approx(expected, rel=1e-15)

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractError):
            micro_prf(-1, 0, 0)


class TestEvaluate:
    def test_oracle_model_scores_one(self):
        samples = random_samples(5, seed=1)
        model = FixedModel(None)
        totals = np.zeros(3)
        for s in samples:
            model.predictions = s.target_days.astype(float)
            rep = evaluate(model, [s], 0.5)
            totals += [rep.precision, rep.recall, rep.f1]
        np.testing.assert_allclose(totals, 5.0)

    def test_report_holds_only_what_evaluate_measures(self):
        rep = evaluate(FixedModel(np.zeros((2, 8))), random_samples(2, seed=8), 0.5)
        assert [f.name for f in dataclasses.fields(rep)] == ["model", "counts"]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_counts_recount_every_window_and_day(self, data):
        n = data.draw(st.integers(1, 9), label="windows")
        t_out = data.draw(st.integers(1, 3), label="t_out")
        width = 2 * data.draw(st.integers(1, 4), label="V")
        target = data.draw(hnp.arrays(np.uint8, (n, t_out, width), elements=st.integers(0, 1)))
        probs = data.draw(hnp.arrays(np.float64, (t_out, width), elements=st.floats(0, 1)))
        threshold = data.draw(st.floats(0.05, 0.95), label="threshold")
        mode = data.draw(st.sampled_from(["per_day", "union"]), label="mode")
        dealers = data.draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
        samples = [Sample(d, i, np.zeros((3, width), np.uint8), target[i])
                   for i, d in enumerate(dealers)]
        model = FixedModel(probs)
        chunk = data.draw(st.integers(1, 4), label="chunk")
        stacks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "EVAL_CHUNK", chunk)
            patch.setattr(model, "predict",
                          lambda x: stacks.append(len(x)) or FixedModel.predict(model, x))
            rep = evaluate(model, samples, threshold, mode=mode)
            assert stacks == [min(chunk, n - lo) for lo in range(0, n, chunk)]
            by_dealer = {d: evaluate(model, [s for s in samples if s.dealer_id == d],
                                     threshold, mode=mode).pooled for d in set(dealers)}
        pred = probs >= threshold
        if mode == "union":
            pred, target = pred.any(axis=0, keepdims=True), target.max(axis=1, keepdims=True)
        assert rep.counts.dtype == np.int64 and rep.counts.shape == (n, len(pred), 4)
        for w in range(n):
            for day in range(len(pred)):
                cells = list(zip(pred[day], target[w, day]))
                recount = [cells.count((True, 1)), cells.count((True, 0)),
                           cells.count((False, 1)), cells.count((False, 0))]
                assert rep.counts[w, day].tolist() == recount, (w, day)
        rows = rep.counts.reshape(n, -1)
        for dealer, pooled in by_dealer.items():
            mine = [i for i, d in enumerate(dealers) if d == dealer]
            assert rows[mine].reshape(-1, 4).sum(axis=0).tolist() == pooled, dealer
        pooled = rep.counts.sum(axis=(0, 1)).tolist()
        assert [rep.tp, rep.fp, rep.fn, rep.tn] == pooled
        assert all(type(count) is int for count in (rep.tp, rep.fp, rep.fn, rep.tn))
        assert (rep.precision, rep.recall, rep.f1) == micro_prf(*pooled[:3])

    def test_overflowing_forecast_raises(self):
        # finite parameters whose forecasts overflow to NaN, which would
        # otherwise count as negatives
        model = build_model(toy_config("TransFV", vocab_size=V))
        model.params.flat[:] = 1e300
        with pytest.raises(NumericError, match="non-finite forecast from the TransFV model"):
            evaluate(model, random_samples(3, seed=3), 0.5)

    @pytest.mark.parametrize("target, probs, mode, counts, scores", [
        # one output day: tp 2, fp 1, fn 1
        (["11100000"], ["98170000"], "per_day", (2, 1, 1, 4), (2 / 3, 2 / 3, 2 / 3)),
        # a day's hit in the union of both days
        (["10000000", "01000000"], ["90000000", "09000000"], "union", (2, 0, 0, 6), (1, 1, 1)),
        (["11110000", "00001111"], ["00000000"] * 2, "per_day", (0, 0, 8, 8), (0, 0, 0)),
    ], ids=["formula", "union", "all_negative"])
    def test_hand_counts(self, target, probs, mode, counts, scores):
        def grid(rows, scale):
            return np.array([[int(c) for c in row] for row in rows]) / scale

        sample = Sample("D1", 0, np.zeros((3, 8), np.uint8), grid(target, 1).astype(np.uint8))
        rep = evaluate(FixedModel(grid(probs, 10)), [sample], 0.5, mode=mode)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == counts
        assert (rep.precision, rep.recall, rep.f1) == pytest.approx(scores, rel=1e-15)

    def test_threshold_monotone_in_tp(self):
        rng = np.random.default_rng(4)
        samples = random_samples(4, seed=5)
        probs = rng.random((2, 8))
        model = FixedModel(probs)
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            rep = evaluate(model, samples, threshold)
            if previous is not None:
                assert rep.tp <= previous
            previous = rep.tp

    def test_union_mode_reads_edited_targets(self):
        # the union target is the window-wise max of target_days as they are
        # when scored, not as they were when the Sample was built
        sample = Sample("D1", 0, np.zeros((3, 8), np.uint8), np.zeros((2, 8), np.uint8))
        sample.target_days[0, 0] = 1
        sample.target_days[1, 3] = 1
        probs = np.zeros((2, 8))
        probs[1, 0] = 0.9
        rep = evaluate(FixedModel(probs), [sample], 0.5, mode="union")
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (1, 0, 1, 6)

    @pytest.mark.parametrize("days, windows, mode, error, match", [
        (2, 0, "per_day", ContractError, None),
        (2, 1, "max", ContractError, "unknown evaluation mode 'max'"),
        # three output days where the targets have two
        (3, 2, "per_day", ShapeMismatchError,
         r"predict returned shape \(2, 3, 8\) .* targets \(2, 2, 8\)"),
    ], ids=["no_windows", "unknown_mode", "forecast_of_another_shape"])
    def test_refused(self, days, windows, mode, error, match):
        with pytest.raises(error, match=match):
            evaluate(FixedModel(np.zeros((days, 8))), random_samples(windows, seed=6), 0.5,
                     mode=mode)


class TestScoreUnits:
    @pytest.mark.parametrize("mode", EVAL_MODES)
    def test_one_evaluate_call_per_unit_summed_per_dealer(self, monkeypatch, mode):
        dealers = ("DB", "DA", "DC")
        labels = {"DA": 1, "DB": 0, "DC": 1}
        test_s = [random_samples(1, seed=110 + i, dealer=dealers[i // 3])[0] for i in range(9)]
        [(tag, _, unit_test)] = training_units("single", test_s, test_s, labels)
        assert unit_test == test_s  # one run per dealer, not in id order; the tiers interleave

        class EchoModel(FixedModel):
            """Forecasts each window's first T_out input days."""

            def predict(self, input_days):
                chunks.append(input_days)
                return input_days[..., :2, :].astype(np.float64)

        evaluated, chunks = [], []

        def recorded(model, samples, *args, **kwargs):
            evaluated.append(list(samples))
            return evaluate(model, samples, *args, **kwargs)

        monkeypatch.setattr(harness, "EVAL_CHUNK", 2)
        monkeypatch.setattr(harness, "evaluate", recorded)
        table = score_units("stub", [(tag, [], unit_test)], [EchoModel(None)], 0.5, mode, labels)
        assert evaluated == [unit_test]
        assert [len(c) for c in chunks] == [2, 2, 2, 2, 1]
        assert np.array_equal(np.concatenate(chunks), [s.input_days for s in unit_test])
        assert [(dealer, tier) for dealer, tier, _ in table] == [("DA", 1), ("DB", 0), ("DC", 1)]
        for dealer, _, report in table:
            recount = np.zeros((2 if mode == "per_day" else 1, 4), dtype=np.int64)
            for s in (s for s in unit_test if s.dealer_id == dealer):
                pred, target = s.input_days[:2] >= 0.5, s.target_days.astype(bool)
                if mode == "union":
                    pred, target = pred.any(axis=0, keepdims=True), target.any(axis=0, keepdims=True)
                recount += [[np.sum(p & t), np.sum(p & ~t), np.sum(~p & t), np.sum(~p & ~t)]
                            for p, t in zip(pred, target)]
            assert report.model == "stub" and report.counts.dtype == np.int64
            assert report.counts.tolist() == recount.tolist(), dealer

    def test_each_unit_is_scored_by_its_own_model(self):
        labels = {"DA": 0, "DB": 1}
        units = [("dealer_DA", [], random_samples(3, seed=120, dealer="DA")),
                 ("dealer_DB", [], random_samples(2, seed=121, dealer="DB"))]
        every, none = FixedModel(np.ones((2, 8))), FixedModel(np.zeros((2, 8)))
        table = score_units("stub", units, [every, none], 0.5, "per_day", labels)
        assert [(dealer, tier) for dealer, tier, _ in table] == [("DA", 0), ("DB", 1)]
        for (_, _, report), (_, _, unit_test), model in zip(table, units, (every, none)):
            assert np.array_equal(report.counts,
                                  evaluate(model, unit_test, 0.5).counts.sum(axis=0))
        # DA's windows forecast every cell and DB's none, so the two never mix
        (_, _, da), (_, _, db) = table
        assert da.fn == da.tn == 0 and da.tp > 0
        assert db.tp == db.fp == 0 and db.fn > 0
        with pytest.raises(ValueError, match="shorter"):
            score_units("stub", units, [every], 0.5, "per_day", labels)

    @pytest.mark.parametrize("order", [("DA", "DB", "DA"), ("DA", "DB", "DB", "DA")])
    def test_interleaved_dealers_rejected_before_scoring(self, monkeypatch, order):
        # one np.add.reduceat per unit sums each dealer's windows only when
        # they are one run; two runs of one dealer would become two rows
        unit_test = [random_samples(1, seed=130 + i, dealer=d)[0] for i, d in enumerate(order)]
        monkeypatch.setattr(harness, "evaluate", lambda *args, **kwargs: pytest.fail("scored"))
        with pytest.raises(ContractError, match="unit single: a dealer's test windows are not "
                                                "one contiguous run"):
            score_units("stub", [("single", [], unit_test)], [FixedModel(np.zeros((2, 8)))],
                        0.5, "per_day", {"DA": 0, "DB": 1})

    def test_unlabelled_dealer_rejected(self):
        samples = random_samples(1, seed=99, dealer="DX")
        with pytest.raises(ContractError, match="DX"):
            score_units("stub", [("single", [], samples)], [FixedModel(np.zeros((2, 8)))],
                        0.5, "per_day", {"DA": 0})


class TestTrain:
    def test_single_sample_overfit(self):
        sample = random_samples(1, seed=12)[0]
        sample.target_days[1] = sample.target_days[0]  # representable by all kinds
        model = build_model(toy_config("TransPPRZ", vocab_size=V))
        first = initial_loss(model, sample)
        _, losses = train(model, [sample], TrainSpec(epochs=120, batch_size=1))
        assert min(losses) < 0.01 * first

    def test_empty_training_set_rejected(self):
        with pytest.raises(ContractError):
            train(build_model(toy_config("TransRE", vocab_size=V)), [], TrainSpec())

    @pytest.mark.parametrize("kind", ["FCSum", "LSTM", "TransPPRZ"])
    def test_each_epoch_yields_after_its_last_step(self, kind):
        # two mini-batches per epoch: a yield before the second step would
        # show the parameters one step short
        samples = random_samples(6, seed=23)
        spec = TrainSpec(epochs=3, batch_size=4, learning_rate=0.01, seed=24)
        model = build_model(toy_config(kind, vocab_size=V))
        yielded = 0
        for k, loss in enumerate(epochs(model, samples, spec), 1):
            fresh = build_model(toy_config(kind, vocab_size=V))
            _, losses = train(fresh, samples, dataclasses.replace(spec, epochs=k))
            assert model.params.flat.tobytes() == fresh.params.flat.tobytes(), k
            assert loss == losses[-1]
            yielded = k
        assert yielded == 3

    def test_every_epoch_runs_when_the_loss_stalls(self):
        # at this rate Adam overshoots, so some epochs do not improve on the best before them
        spec = TrainSpec(epochs=50, batch_size=6, learning_rate=0.3, seed=26)
        model = build_model(toy_config("FCSum", vocab_size=V))
        _, losses = train(model, random_samples(6, seed=27), spec)
        assert any(loss >= min(losses[:k]) for k, loss in enumerate(losses) if k)
        assert len(losses) == spec.epochs

    def test_epoch_loss_is_the_mean_per_sample_loss(self):
        # three mini-batches whose steps barely move the parameters: the epoch's
        # loss is the mean of the windows' losses, not a sum or a batch's mean
        samples = random_samples(6, seed=28)
        model = build_model(toy_config("FCSum", vocab_size=V))
        expected = np.mean([initial_loss(model, sample) for sample in samples])
        _, losses = train(model, samples, TrainSpec(epochs=1, batch_size=2, learning_rate=1e-12))
        assert losses[0] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("kind", ["FCSum", "LSTM", "TransPPRZ"])
    @pytest.mark.parametrize("spec", [
        TrainSpec(epochs=3, batch_size=4, learning_rate=0.01, seed=25),
        TrainSpec(epochs=0),
    ], ids=["three_epochs", "no_epochs"])
    def test_epochs_yields_what_train_returns(self, kind, spec):
        samples = random_samples(6, seed=27)
        yielded = list(epochs(build_model(toy_config(kind, vocab_size=V)), samples, spec))
        params, losses = train(build_model(toy_config(kind, vocab_size=V)), samples, spec)
        assert yielded == losses
        assert len(losses) == spec.epochs
        # no epoch, no step
        initial = build_model(toy_config(kind, vocab_size=V)).params.flat
        assert (params.flat.tobytes() == initial.tobytes()) == (spec.epochs == 0)

    @pytest.mark.parametrize("key, value", REFUSED)
    def test_spec_refuses_what_the_config_refuses(self, tmp_path, key, value):
        section = next(f.metadata["section"] for f in dataclasses.fields(RunConfig)
                       if f.name == key)
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key} must be"):
            parse_config(path)
        name = RANGE_FIELDS.get(key, key)
        spec = SPEC_OF[name]
        base = toy_config("TransRE", vocab_size=V) if spec is ModelConfig else spec()
        if name != key:  # the key sets one end of the range
            lo, hi = getattr(base, name)
            value = (value, hi) if "_min_" in key else (lo, value)
        with pytest.raises((ContractError, ConfigurationError), match=re.escape(name)):
            dataclasses.replace(base, **{name: value})

    def test_every_spec_setting_has_a_refused_value(self):
        assert {RANGE_FIELDS.get(key, key) for key, _ in REFUSED} == (
            set(SPEC_OF) - {"seed", "vocab_size"})

    @pytest.mark.parametrize("config", [pytest.param(toy_config(kind, vocab_size=V), id=kind)
                                        for kind in MODEL_KINDS]
                             + [pytest.param(C7_PPRZ, id="C7-TransPPRZ")])
    def test_flat_adam_matches_per_tensor_reference(self, config):
        samples = random_samples(12, vocab_size=config.vocab_size, t_in=config.t_in,
                                 t_out=config.t_out, seed=21)
        spec = TrainSpec(epochs=2, batch_size=4, learning_rate=0.01, seed=22)
        trained = build_model(config)
        flat = trained.params.flat
        train(trained, samples, spec)
        reference = build_model(config)
        params = reference.params.tensors()
        moments = [(np.zeros_like(p.values), np.zeros_like(p.values)) for p in params]
        lows = range(0, len(samples), spec.batch_size)
        # each epoch draws its own order
        orders = [rng_for(spec.seed, "shuffle", epoch).permutation(len(samples))
                  for epoch in range(spec.epochs)]
        for step, (order, lo) in enumerate(itertools.product(orders, lows), start=1):
            batch = [samples[i] for i in order[lo:lo + spec.batch_size]]
            target = np.stack([s.target_days for s in batch]).astype(np.float64)
            ad.reset_tape()
            pred = reference.forward(np.stack([s.input_days for s in batch]), teacher=target)
            grads = ad.backward(ad.mse_loss(pred, Tensor(target)), params)
            per_tensor_adam(params, grads, moments, step, spec.learning_rate)
        ad.reset_tape()
        assert len(lows) == 3
        initial = build_model(config).params
        assert any(not np.array_equal(initial[n].values, trained.params[n].values)
                   for n in initial.names())
        for name in reference.params.names():
            np.testing.assert_array_equal(trained.params[name].values,
                                          reference.params[name].values, err_msg=name)
        # training updates the packed vector in place
        np.testing.assert_array_equal(
            flat, np.concatenate([t.values.reshape(-1) for t in params]))

    def test_steps_after_the_first_allocate_less_than_one_vector(self, monkeypatch):
        # at batch 1 the C7 TransPPRZ's 44,104 parameters dwarf a step's
        # activations; numpy reports its buffers to tracemalloc, so a
        # parameter-sized gradient held anywhere in the step, such as one
        # array per leaf beside the flat vector, peaks at params.flat.nbytes
        c7 = ModelConfig("TransPPRZ", vocab_size=20, t_in=5, t_out=5, d_model=32, d_ff=64)
        model = build_model(c7)
        adam_step, peaks = ad.adam_step, []

        def traced(values, grad, state):
            adam_step(values, grad, state)
            if state.step == 2:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            elif state.step == 1:
                tracemalloc.start()

        monkeypatch.setattr(ad, "adam_step", traced)
        try:
            train(model, random_samples(3, vocab_size=20, t_in=5, t_out=5, seed=23),
                  TrainSpec(epochs=1, batch_size=1))
        finally:
            tracemalloc.stop()
        assert model.params.flat.size > 40_000
        assert len(peaks) == 1 and peaks[0] < model.params.flat.nbytes

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_the_tape_is_empty_whenever_adam_runs(self, monkeypatch, kind):
        adam_step, tapes = ad.adam_step, []

        def counted(values, grad, state):
            tapes.append(ad.tape_size())
            adam_step(values, grad, state)

        monkeypatch.setattr(ad, "adam_step", counted)
        train(build_model(toy_config(kind, vocab_size=V)), random_samples(5, seed=24),
              TrainSpec(epochs=2, batch_size=2))
        assert tapes == [0] * 6

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_gradient_aborts_before_the_step(self):
        # pred = 1e308 * w with w = 1e-308: every one of the 32 predictions
        # is about 1, so the loss is finite, but dloss/dw sums 32 terms of
        # (1/16) * 1e308, which overflows to inf
        class OverflowingGradient:
            config = SimpleNamespace(kind="stub")

            def __init__(self):
                self.params = Parameters({"w": Tensor(np.asarray(1e-308), requires_grad=True)})

            def forward(self, input_days, teacher=None):
                big = Tensor(np.full(np.shape(teacher), 1e308))
                return ad.scale_by(big, self.params["w"])

        model = OverflowingGradient()
        samples = random_samples(2, seed=18, density=0.0)
        with pytest.raises(NumericError, match="gradient"):
            train(model, samples, TrainSpec(epochs=1, batch_size=2))
        assert model.params["w"].values == 1e-308


class TracedModel:
    """A stub ``kind`` model whose forward traces ``field`` as layer enc0."""

    def __init__(self, kind, field):
        self.config, self.field = SimpleNamespace(kind=kind), field

    def forward(self, input_days, teacher=None, trace=None):
        trace.append(("enc0", self.field))


class TestLayerStats:
    def test_identity_at_init_stats(self):
        model = build_model(toy_config("TransPPRZ", vocab_size=V, n_layers=2))
        samples = random_samples(3, seed=14)
        stats = layer_signal_stats(model, samples)
        assert list(stats) == ["encoder.l0", "encoder.l1", "decoder.l0", "decoder.l1"]
        # zero gates: every encoder layer reproduces its input exactly,
        # so both encoder layers report identical moments
        assert stats["encoder.l0"] == stats["encoder.l1"]
        for mean, variance in stats.values():
            assert variance >= 0.0

    @pytest.mark.parametrize("kind, field, moments", [
        ("TransPPRZ", np.array([[-1.0, 1.0]]), (0.0, 1.0)),  # the population moments
        ("TransRE", np.full((2, 3), 4.5), (4.5, 0.0)),  # a constant field has no variance
    ])
    def test_moments_of_a_traced_field(self, kind, field, moments):
        stats = layer_signal_stats(TracedModel(kind, field), random_samples(1, seed=15))
        assert stats == {"enc0": moments}

    def test_overflowing_forward_raises(self):
        model = build_model(toy_config("TransFV", vocab_size=V))
        model.params.flat[:] = 1e300
        with pytest.raises(NumericError, match="non-finite layer statistic of the TransFV"):
            layer_signal_stats(model, random_samples(3, seed=18))

    def test_overflowing_variance_raises(self):
        huge = TracedModel("TransRE", np.array([-1e300, 1e300]))  # finite, variance is not
        with pytest.raises(NumericError, match="non-finite layer statistic"):
            layer_signal_stats(huge, random_samples(1, seed=19))

    def test_non_transformer_rejected(self):
        with pytest.raises(ContractError):
            layer_signal_stats(build_model(toy_config("FCSum", vocab_size=V)),
                               random_samples(1, seed=17))

    def test_empty_probe_batch_rejected(self):
        with pytest.raises(ContractError, match="needs a nonempty probe batch"):
            layer_signal_stats(build_model(toy_config("TransRE", vocab_size=V)), [])


def market_samples(dealers, per_dealer=4, seed=0):
    samples = []
    for i, dealer in enumerate(dealers):
        samples.extend(random_samples(per_dealer, seed=seed + i, dealer=dealer))
    return samples


def run_experiment(granularity, train_s, test_s, labels):
    """training_units -> a model trained per unit -> score_units, as ``compare`` runs them."""
    spec = TrainSpec(epochs=2, batch_size=4, learning_rate=0.01, seed=1)
    units = training_units(granularity, train_s, test_s, labels)
    models = [build_model(toy_config("TransRE", vocab_size=V)) for _ in units]
    for model, (_, unit_train, _) in zip(models, units):
        train(model, unit_train, spec)
    return tier_rows("TransRE", score_units("TransRE", units, models, 0.5, "per_day", labels))


class TestGranularityExperiment:
    def test_single_dealer_collapse(self):
        # every unit model starts from the same seeded initialization
        train_s = market_samples(["D1"], per_dealer=3, seed=20)
        test_s = market_samples(["D1"], per_dealer=2, seed=30)
        f1s = {}
        for granularity in GRANULARITIES:
            rows = run_experiment(granularity, train_s, test_s, {"D1": 0})
            assert [cluster for cluster, _ in rows] == ["0", "all"]
            f1s[granularity] = rows[-1][1].f1
        assert len(set(f1s.values())) == 1

    def test_units_group_test_samples_by_the_same_key(self):
        labels = {"DA": 0, "DB": 0, "DC": 1, "DD": 1}
        train_s = market_samples(labels, per_dealer=3, seed=90)
        test_s = market_samples(labels, per_dealer=2, seed=95)
        by_cluster = training_units("cluster", train_s, test_s, labels)
        assert [tag for tag, _, _ in by_cluster] == ["cluster0", "cluster1"]
        for tag, unit_train, unit_test in by_cluster:
            assert {f"cluster{labels[s.dealer_id]}" for s in unit_train + unit_test} == {tag}
        by_dealer = training_units("individual", train_s, test_s, labels)
        assert [tag for tag, _, _ in by_dealer] == [f"dealer_{d}" for d in labels]
        for tag, unit_train, unit_test in by_dealer:
            assert {f"dealer_{s.dealer_id}" for s in unit_train + unit_test} == {tag}
            assert len(unit_test) == 2
        for units in (by_cluster, by_dealer, training_units("single", train_s, test_s, labels)):
            assert sum(len(t) for _, _, t in units) == len(test_s)

    def test_row_structure_and_cluster_order(self):
        labels = {"DA": 0, "DB": 1}
        train_s = market_samples(labels, per_dealer=3, seed=40)
        test_s = market_samples(labels, per_dealer=2, seed=50)
        for granularity in GRANULARITIES:
            rows = run_experiment(granularity, train_s, test_s, labels)
            # one row per cluster, then the "all" row
            assert [cluster for cluster, _ in rows] == ["0", "1", "all"]
            assert {report.model for _, report in rows} == {"TransRE"}

    def test_dealer_without_training_samples_warns(self):
        labels = {"DA": 0, "DB": 0}
        train_s = market_samples(["DA"], per_dealer=3, seed=60)
        test_s = market_samples(labels, per_dealer=1, seed=70)
        with pytest.warns(UserWarning, match="DB"):
            rows = run_experiment("individual", train_s, test_s, labels)
        assert [cluster for cluster, _ in rows] == ["0", "all"]

    def test_unit_without_test_samples_warns_and_is_not_scored(self):
        model = FixedModel(np.zeros((2, 8)))
        with pytest.warns(UserWarning, match="cluster1 has no test samples"):
            rows = tier_rows("stub", score_units("stub", [
                ("cluster0", [], random_samples(2, seed=75, dealer="DA")),
                ("cluster1", [], []),
            ], [model, model], 0.5, "per_day", {"DA": 0, "DB": 1}))
        assert [cluster for cluster, _ in rows] == ["0", "all"]
        (_, one), (_, pooled) = rows
        assert (one.tp, one.fp, one.fn, one.tn) == (pooled.tp, pooled.fp, pooled.fn, pooled.tn)

    def test_no_unit_with_test_samples_leaves_an_empty_all_row(self):
        with pytest.warns(UserWarning, match="single has no test samples"):
            table = score_units("stub", [("single", [], [])], [FixedModel(np.zeros((2, 8)))],
                                0.5, "per_day", {})
        assert table == []
        [(cluster, report)] = tier_rows("stub", table)
        assert (cluster, report.model, report.pooled) == ("all", "stub", [0, 0, 0, 0])
        assert report.f1 == 0.0
        assert report.counts.dtype == np.int64 and report.counts.shape == (0, 0, 4)

    @pytest.mark.parametrize("granularity, labels, message", [
        ("cluster", {}, "DA missing from cluster assignment"),
        ("dealer", {"DA": 0}, "unknown granularity 'dealer'"),
    ], ids=["missing_assignment", "unknown_granularity"])
    def test_refused(self, granularity, labels, message):
        train_s = market_samples(["DA"], seed=80)
        with pytest.raises(ContractError, match=message):
            training_units(granularity, train_s, train_s, labels)


class TestReportIO:
    def test_report_round_trip(self, tmp_path):
        rows = [
            ("0", EvalReport("TransRE", np.array([[[3, 1, 2, 10]]]))),
            ("all", EvalReport("TransRE", np.array([[[3, 1, 2, 10]], [[2, 1, 1, 10]]]))),
        ]
        path = tmp_path / "report.csv"
        write_reports(path, "cluster", rows)
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == ["model", "granularity", "cluster", "tp", "fp", "fn", "tn",
                          "precision", "recall", "f1"]
        assert body == [
            [r.model, "cluster", cluster, str(r.tp), str(r.fp), str(r.fn), str(r.tn),
             repr(r.precision), repr(r.recall), repr(r.f1)]
            for cluster, r in rows
        ]
        assert float(body[0][9]) == rows[0][1].f1

    def test_readme_report_columns_are_the_written_header(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        columns = re.search(r"^\* `report\.csv`: `([^`]*)`", readme, re.MULTILINE).group(1)
        write_reports(tmp_path / "report.csv", "single", [])
        assert (tmp_path / "report.csv").read_bytes() == f"{columns}\r\n".encode()
