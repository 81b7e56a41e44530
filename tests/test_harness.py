"""Training loop, metrics, layer statistics, and granularity experiment."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor
from otcforecast.config import parse_config
from otcforecast.errors import ConfigurationError, ContractError, NumericError, ShapeMismatchError
from otcforecast.harness import (
    GRANULARITIES,
    EvalReport,
    TrainSpec,
    evaluate,
    layer_signal_stats,
    micro_prf,
    score_units,
    train,
    train_units,
    training_units,
    write_layer_stats,
    write_reports,
)
from otcforecast.market import Sample
from otcforecast.models import MODEL_KINDS, ModelConfig, Parameters, build_model
from otcforecast.seeding import rng_for

from helpers import initial_loss


def toy_config(kind="TransRE", **overrides):
    base = dict(kind=kind, vocab_size=4, t_in=3, t_out=2,
                d_model=4, heads=2, n_layers=1, d_ff=8, hidden=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_samples(n, vocab_size=4, t_in=3, t_out=2, seed=0, dealer="D1", density=0.3):
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


class FixedModel:
    """Evaluation stub that predicts the same (T_out, 2V) matrix for every
    window of a (..., T_in, 2V) input stack."""

    class _Config:
        kind = "stub"

    config = _Config()

    def __init__(self, predictions):
        self.predictions = predictions

    def predict(self, input_days):
        return np.broadcast_to(self.predictions, np.shape(input_days)[:-2] + self.predictions.shape)


class TestMicroPrf:
    def test_empty_convention(self):
        assert micro_prf(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert micro_prf(5, 0, 0) == (1.0, 1.0, 1.0)

    def test_formula_oracle(self):
        p, r, f1 = micro_prf(3, 1, 2)
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.6)
        assert f1 == pytest.approx(2 * 0.45 / 1.35)

    def test_identity_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, fn = (int(v) for v in rng.integers(0, 50, size=3))
            p, r, f1 = micro_prf(tp, fp, fn)
            assert 0.0 <= f1 <= 1.0
            assert abs(f1 * (p + r) - 2 * p * r) < 1e-12

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

    def test_all_negative_predictor(self):
        samples = random_samples(3, seed=2, density=0.5)
        model = FixedModel(np.zeros((2, 8)))
        rep = evaluate(model, samples, 0.5)
        assert rep.recall == 0.0 and rep.f1 == 0.0

    def test_overflowing_forecast_raises(self):
        # finite parameters whose forecasts overflow to NaN, which would
        # otherwise count as negatives
        model = build_model(toy_config("TransFV"))
        model.params.flat[:] = 1e300
        with pytest.raises(NumericError, match="non-finite forecast from the TransFV model"):
            evaluate(model, random_samples(3, seed=3), 0.5)

    def test_formula_case(self):
        # one sample, one output day: tp=2, fp=1, fn=1
        target = np.array([[1, 1, 1, 0, 0, 0, 0, 0]], dtype=np.uint8)
        probs = np.array([[0.9, 0.8, 0.1, 0.7, 0.0, 0.0, 0.0, 0.0]])
        sample = Sample("D1", 0, np.zeros((3, 8), np.uint8), target)
        rep = evaluate(FixedModel(probs), [sample], 0.5)
        assert (rep.tp, rep.fp, rep.fn) == (2, 1, 1)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.f1 == pytest.approx(2 / 3)

    def test_brute_force_recount_on_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            target = (rng.random((2, 8)) < 0.4).astype(np.uint8)
            probs = rng.random((2, 8))
            sample = Sample("D1", 0, np.zeros((3, 8), np.uint8), target)
            rep = evaluate(FixedModel(probs), [sample], 0.5)
            pred = probs >= 0.5
            tp = int((pred & (target == 1)).sum())
            fp = int((pred & (target == 0)).sum())
            fn = int((~pred & (target == 1)).sum())
            assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn)
            assert rep.tp + rep.fp + rep.fn + rep.tn == target.size

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

    def test_union_mode(self):
        target = np.array([[1, 0, 0, 0, 0, 0, 0, 0],
                           [0, 1, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        sample = Sample("D1", 0, np.zeros((3, 8), np.uint8), target)
        probs = np.array([[0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        rep = evaluate(FixedModel(probs), [sample], 0.5, mode="union")
        assert (rep.tp, rep.fp, rep.fn) == (2, 0, 0)
        assert rep.tn == 6

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

    def test_empty_test_set_rejected(self):
        with pytest.raises(ContractError):
            evaluate(FixedModel(np.zeros((2, 8))), [], 0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown evaluation mode 'max'"):
            evaluate(FixedModel(np.zeros((2, 8))), random_samples(1, seed=6), 0.5, mode="max")

    def test_forecast_of_the_wrong_shape_rejected(self):
        # three output days where the targets have two
        with pytest.raises(ShapeMismatchError,
                           match=r"predict returned shape \(2, 3, 8\) .* targets \(2, 2, 8\)"):
            evaluate(FixedModel(np.zeros((3, 8))), random_samples(2, seed=7), 0.5)


class TestScoreUnits:
    def test_single_unit_rows_split_counts_by_cluster(self):
        rng = np.random.default_rng(6)
        a = random_samples(3, seed=6, dealer="DA")
        b = random_samples(2, seed=7, dealer="DB")
        model = FixedModel(rng.random((2, 8)))
        labels = {"DA": 0, "DB": 1}
        rows = score_units("stub", "single", [("single", model, b + a)], 0.5, "per_day", labels)
        assert [(r.granularity, r.cluster) for r in rows] == [
            ("single", "0"), ("single", "1"), ("single", "all")]

        def counts(r):
            return [r.tp, r.fp, r.fn, r.tn]

        assert counts(rows[0]) == counts(evaluate(model, a, 0.5))
        assert counts(rows[1]) == counts(evaluate(model, b, 0.5))
        assert counts(rows[2]) == (np.array(counts(rows[0])) + counts(rows[1])).tolist()

    def test_unlabelled_dealer_rejected(self):
        samples = random_samples(1, seed=99, dealer="DX")
        with pytest.raises(ContractError, match="DX"):
            score_units("stub", "single", [("single", FixedModel(np.zeros((2, 8))), samples)],
                        0.5, "per_day", {"DA": 0})


class TestTrain:
    def test_zero_epochs_keeps_params(self):
        model = build_model(toy_config())
        before = model.params.flat.copy()
        _, losses = train(model, random_samples(3, seed=8), TrainSpec(epochs=0))
        assert losses == []
        np.testing.assert_array_equal(model.params.flat, before)

    def test_loss_curve_deterministic(self):
        spec = TrainSpec(epochs=3, batch_size=2, learning_rate=0.01, seed=9)
        curves = []
        for _ in range(2):
            model = build_model(toy_config(seed=10))
            _, losses = train(model, random_samples(6, seed=11), spec)
            curves.append(losses)
        assert curves[0] == curves[1]

    def test_single_sample_overfit(self):
        sample = random_samples(1, seed=12)[0]
        sample.target_days[1] = sample.target_days[0]  # representable by all kinds
        model = build_model(toy_config("TransPPRZ"))
        first = initial_loss(model, sample)
        _, losses = train(model, [sample], TrainSpec(epochs=120, batch_size=1))
        assert min(losses) < 0.01 * first

    def test_empty_training_set_rejected(self):
        with pytest.raises(ContractError):
            train(build_model(toy_config()), [], TrainSpec())

    def test_patience_stops_early(self):
        sample = random_samples(1, seed=13)[0]
        model = build_model(toy_config("FCSum"))
        _, losses = train(model, [sample],
                          TrainSpec(epochs=400, batch_size=1, patience=5))
        assert len(losses) < 400

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractError):
            TrainSpec(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.01),
        ("patience", 0),
    ])
    def test_spec_refuses_what_the_config_refuses(self, tmp_path, field, value):
        with pytest.raises(ContractError, match=f"{field} must be"):
            TrainSpec(**{field: value})
        path = tmp_path / "run.ini"
        path.write_text(f"[train]\n{field} = {value}\n")
        with pytest.raises(ConfigurationError, match=rf"\[train\] {field} must be"):
            parse_config(path)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_flat_adam_matches_per_tensor_reference(self, kind):
        samples = random_samples(12, seed=21)
        spec = TrainSpec(epochs=1, batch_size=4, learning_rate=0.01, seed=22)
        trained = build_model(toy_config(kind))
        flat = trained.params.flat
        train(trained, samples, spec)
        reference = build_model(toy_config(kind))
        params = reference.params.tensors()
        moments = [(np.zeros_like(p.values), np.zeros_like(p.values)) for p in params]
        order = rng_for(spec.seed, "shuffle", 0).permutation(len(samples))
        lows = range(0, len(samples), spec.batch_size)
        for step, lo in enumerate(lows, start=1):
            batch = [samples[i] for i in order[lo:lo + spec.batch_size]]
            target = np.stack([s.target_days for s in batch]).astype(np.float64)
            ad.reset_tape()
            pred = reference.forward(np.stack([s.input_days for s in batch]), teacher=target)
            grads = ad.backward(ad.mse_loss(pred, Tensor(target)), params)
            per_tensor_adam(params, grads, moments, step, spec.learning_rate)
        ad.reset_tape()
        assert len(lows) == 3
        initial = build_model(toy_config(kind)).params
        assert any(not np.array_equal(initial[n].values, trained.params[n].values)
                   for n in initial.names())
        for name in reference.params.names():
            np.testing.assert_array_equal(trained.params[name].values,
                                          reference.params[name].values, err_msg=name)
        # training updates the packed vector in place
        np.testing.assert_array_equal(
            flat, np.concatenate([t.values.reshape(-1) for t in params]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_gradient_aborts_before_the_step(self):
        # pred = 1e308 * w with w = 1e-308: every one of the 32 predictions
        # is about 1, so the loss is finite, but dloss/dw sums 32 terms of
        # (1/16) * 1e308, which overflows to inf
        class OverflowingGradient:
            class _Config:
                kind = "stub"

            config = _Config()

            def __init__(self):
                self.params = Parameters({"w": np.asarray(1e-308)})

            def forward(self, input_days, teacher=None):
                big = Tensor(np.full(np.shape(teacher), 1e308))
                return ad.scale_by(big, self.params["w"])

        model = OverflowingGradient()
        samples = random_samples(2, seed=18, density=0.0)
        with pytest.raises(NumericError, match="gradient"):
            train(model, samples, TrainSpec(epochs=1, batch_size=2))
        assert model.params["w"].values == 1e-308


class TestLayerStats:
    def test_identity_at_init_stats(self):
        model = build_model(toy_config("TransPPRZ", n_layers=2))
        samples = random_samples(3, seed=14)
        stats = layer_signal_stats(model, samples)
        assert list(stats) == ["enc0", "enc1", "dec0", "dec1"]
        # zero gates: every encoder layer reproduces its input exactly,
        # so both encoder layers report identical moments
        assert stats["enc0"] == stats["enc1"]
        for mean, variance in stats.values():
            assert variance >= 0.0

    def test_population_moment_oracle(self):
        class TwoValueModel:
            class _Config:
                kind = "TransPPRZ"

            config = _Config()

            def forward(self, input_days, teacher=None, trace=None):
                trace.append(("enc0", np.array([[-1.0, 1.0]])))
                return None

        stats = layer_signal_stats(TwoValueModel(), random_samples(1, seed=15))
        mean, variance = stats["enc0"]
        assert mean == 0.0
        assert variance == 1.0

    def test_constant_field_zero_variance(self):
        class ConstModel:
            class _Config:
                kind = "TransRE"

            config = _Config()

            def forward(self, input_days, teacher=None, trace=None):
                trace.append(("enc0", np.full((2, 3), 4.5)))
                return None

        stats = layer_signal_stats(ConstModel(), random_samples(1, seed=16))
        assert stats["enc0"] == (4.5, 0.0)

    def test_overflowing_forward_raises(self):
        model = build_model(toy_config("TransFV"))
        model.params.flat[:] = 1e300
        with pytest.raises(NumericError, match="non-finite layer statistic of the TransFV"):
            layer_signal_stats(model, random_samples(3, seed=18))

    def test_overflowing_variance_raises(self):
        class HugeModel:
            class _Config:
                kind = "TransRE"

            config = _Config()

            def forward(self, input_days, teacher=None, trace=None):
                trace.append(("enc0", np.array([-1e300, 1e300])))  # finite, variance is not
                return None

        with pytest.raises(NumericError, match="non-finite layer statistic"):
            layer_signal_stats(HugeModel(), random_samples(1, seed=19))

    def test_non_transformer_rejected(self):
        with pytest.raises(ContractError):
            layer_signal_stats(build_model(toy_config("FCSum")),
                               random_samples(1, seed=17))

    def test_empty_probe_batch_rejected(self):
        with pytest.raises(ContractError, match="needs a nonempty probe batch"):
            layer_signal_stats(build_model(toy_config()), [])


def market_samples(dealers, per_dealer=4, seed=0):
    samples = []
    for i, dealer in enumerate(dealers):
        samples.extend(random_samples(per_dealer, seed=seed + i, dealer=dealer))
    return samples


def run_experiment(granularity, train_s, test_s, labels):
    """training_units -> train_units -> score_units, as the CLI composes them."""
    spec = TrainSpec(epochs=2, batch_size=4, learning_rate=0.01, seed=1)
    units = training_units(granularity, train_s, test_s, labels)
    trained = [(tag, model, unit_test)
               for tag, model, _, unit_test in train_units(toy_config(), units, spec)]
    return score_units("TransRE", granularity, trained, 0.5, "per_day", labels)


class TestGranularityExperiment:
    def test_single_dealer_collapse(self):
        # every unit model starts from the same seeded initialization
        train_s = market_samples(["D1"], per_dealer=3, seed=20)
        test_s = market_samples(["D1"], per_dealer=2, seed=30)
        f1s = {}
        for granularity in GRANULARITIES:
            rows = run_experiment(granularity, train_s, test_s, {"D1": 0})
            assert [r.cluster for r in rows] == ["0", "all"]
            f1s[granularity] = rows[-1].f1
        assert len(set(f1s.values())) == 1

    def test_cluster_granularity_trains_one_model_per_cluster(self):
        labels = {"DA": 0, "DB": 0, "DC": 1, "DD": 1}
        units = training_units("cluster", market_samples(labels), [], labels)
        assert [tag for tag, _, _ in units] == ["cluster0", "cluster1"]

    def test_units_group_test_samples_by_the_same_key(self):
        labels = {"DA": 0, "DB": 0, "DC": 1, "DD": 1}
        train_s = market_samples(labels, per_dealer=3, seed=90)
        test_s = market_samples(labels, per_dealer=2, seed=95)
        by_cluster = training_units("cluster", train_s, test_s, labels)
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
            assert [r.cluster for r in rows] == ["0", "1", "all"]
            assert {r.granularity for r in rows} == {granularity}

    def test_dealer_without_training_samples_warns(self):
        labels = {"DA": 0, "DB": 0}
        train_s = market_samples(["DA"], per_dealer=3, seed=60)
        test_s = market_samples(labels, per_dealer=1, seed=70)
        with pytest.warns(UserWarning, match="DB"):
            rows = run_experiment("individual", train_s, test_s, labels)
        assert [r.cluster for r in rows] == ["0", "all"]

    def test_unit_without_test_samples_warns_and_is_not_scored(self):
        model = FixedModel(np.zeros((2, 8)))
        with pytest.warns(UserWarning, match="cluster1 has no test samples"):
            rows = score_units("stub", "cluster", [
                ("cluster0", model, random_samples(2, seed=75, dealer="DA")),
                ("cluster1", model, []),
            ], 0.5, "per_day", {"DA": 0, "DB": 1})
        assert [r.cluster for r in rows] == ["0", "all"]
        assert (rows[0].tp, rows[0].fp, rows[0].fn, rows[0].tn) == (
            rows[1].tp, rows[1].fp, rows[1].fn, rows[1].tn)

    def test_missing_assignment_rejected(self):
        train_s = market_samples(["DA"], seed=80)
        with pytest.raises(ContractError, match="DA missing from cluster assignment"):
            training_units("cluster", train_s, train_s, {})

    def test_unknown_granularity_rejected(self):
        train_s = market_samples(["DA"], seed=85)
        with pytest.raises(ContractError, match="unknown granularity 'dealer'"):
            training_units("dealer", train_s, train_s, {"DA": 0})


class TestReportIO:
    def test_report_round_trip(self, tmp_path):
        rows = [
            EvalReport.from_counts("TransRE", "single", "0", 3, 1, 2, 10),
            EvalReport.from_counts("TransRE", "single", "all", 5, 2, 3, 20),
        ]
        path = tmp_path / "report.csv"
        write_reports(path, rows)
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == ["model", "granularity", "cluster", "tp", "fp", "fn", "tn",
                          "precision", "recall", "f1"]
        assert body == [
            [r.model, r.granularity, r.cluster, str(r.tp), str(r.fp), str(r.fn), str(r.tn),
             repr(r.precision), repr(r.recall), repr(r.f1)]
            for r in rows
        ]
        assert float(body[0][9]) == rows[0].f1

    def test_readme_report_columns_are_the_written_header(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        columns = re.search(r"^\* `report\.csv`: `([^`]*)`", readme, re.MULTILINE).group(1)
        write_reports(tmp_path / "report.csv", [])
        assert (tmp_path / "report.csv").read_bytes() == f"{columns}\r\n".encode()

    def test_layer_stats_format(self, tmp_path):
        model = build_model(toy_config("TransPPRZ"))
        stats = layer_signal_stats(model, random_samples(2, seed=21))
        path = tmp_path / "stats.csv"
        write_layer_stats(path, "TransPPRZ", {"single": stats})
        lines = path.read_text().splitlines()
        assert lines[0] == "unit,model,layer,mean,variance"
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["single", "TransPPRZ", layer] for layer in stats]
