"""Acceptance suite: one test per criterion, in order, each printing a
PASS line with its measured figure (run with ``pytest -s`` to see them).

The absolute scores of the original TRACE study are not reproducible on
synthetic data, so everything here is property-based except criterion 7,
which is a soft behavioral bound on patterned synthetic dealers.
"""

import json
import time

import numpy as np
import pytest

import otcforecast.autodiff as ad
from otcforecast import market, models
from otcforecast.autodiff import Tensor
from otcforecast.cli import main
from otcforecast.harness import (
    TrainSpec,
    evaluate,
    micro_prf,
    train,
)
from otcforecast.market import MarketSpec, Sample, split_boundary, split_train_test, windowize
from otcforecast.models import (
    MODEL_KINDS,
    ModelConfig,
    build_model,
    positional_encoding,
)

from helpers import (C7, FD_CASES, FixedModel, finite_diff_check, initial_loss,
                     random_day_matrix, tiny_config, toy_config)


def report(number, detail):
    print(f"\n[criterion {number}] PASS: {detail}")


def periodic_market_spec(seed):
    """Fig.-1-style predictable dealers: fixed bond sets on a strict period."""
    return MarketSpec(
        days=100, bonds=20, periodic_dealers=20, sparse_dealers=0, dense_dealers=0,
        periodic_period_range=(2, 3), periodic_bonds_range=(3, 5),
        periodic_buy_prob=0.6, cancellation_rate=0.0, seed=seed,
    )


def noise_market_spec(seed):
    """Same volume envelope but memoryless random trades."""
    return MarketSpec(
        days=100, bonds=20, periodic_dealers=0, sparse_dealers=0, dense_dealers=20,
        dense_rate=1.8, dense_bonds_range=(20, 20), cancellation_rate=0.0, seed=seed,
    )


def build_split(spec):
    records = market.generate_synthetic_market(spec)
    filtered, _, _ = market.apply_trade_filters(records, 20, 20)
    vocab = market.build_vocabulary(filtered)
    histories = market.build_histories(filtered, vocab, spec.days)
    samples = [s for h in histories for s in market.windowize(h, 5, 5, stride=3)]
    return vocab, split_train_test(samples, spec.days, 0.9)


def experiment_run(spec, seed):
    vocab, (train_s, test_s) = build_split(spec)
    config = ModelConfig("TransPPRZ", seed=seed, **{**C7, "vocab_size": vocab.size})
    model = build_model(config)
    train(model, train_s, TrainSpec(epochs=16, batch_size=8, learning_rate=0.003, seed=seed))
    return evaluate(model, test_s, 0.5)


def test_c1_gradient_correctness():
    started = time.time()
    worst_ops = 0.0
    for case in FD_CASES.values():
        leaves, loss = case()
        worst_ops = max(worst_ops, finite_diff_check(loss, leaves))
    assert worst_ops < 1e-4

    worst_models = {}
    x_in = random_day_matrix(3, 8, 1)
    teacher = random_day_matrix(2, 8, 2)
    for kind in MODEL_KINDS:
        model = build_model(toy_config(kind, seed=3))

        def f(model=model):
            out = model.forward(x_in, teacher=teacher)
            return ad.mse_loss(out, Tensor(teacher.astype(float)))

        worst_models[kind] = finite_diff_check(f, model.params.tensors())
        assert worst_models[kind] < 1e-4, kind

    elapsed = time.time() - started
    assert elapsed < 120.0
    worst = max(worst_ops, max(worst_models.values()))
    report(1, f"max relative gradient error {worst:.2e} over ops and all 8 models "
              f"({elapsed:.0f}s < 120s)")


def test_c2_identity_at_init():
    worst = 0.0
    for kind in ("TransRE", "TransPPRZ"):
        model = build_model(toy_config(kind, n_layers=2, seed=4))
        x = random_day_matrix(3, 8, 5)
        encoder_out = model.encode(x).values
        expected = model.embed_days(x).values + positional_encoding(3, 4)
        worst = max(worst, float(np.abs(encoder_out - expected).max()))
    assert worst < 1e-12
    report(2, f"encoder == embed + positional encoding at init, max dev {worst:.1e}")


def test_c3_pprz_rezero_reduction(monkeypatch):
    config = toy_config("TransPPRZ", n_layers=2, seed=6)
    pprz = build_model(config)
    # the CTE embedding under scalar gates, a pairing no kind has
    monkeypatch.setitem(models._TRANSFORMER_MODES, "TransPPRZ", ("cte", "scalar"))
    twin = build_model(config)
    rng = np.random.default_rng(7)
    trials = 0
    for round_ in range(5):
        for name in pprz.params.names():
            if name.endswith(".gate"):
                c = float(rng.normal(scale=0.5))
                pprz.params[name].values[...] = c
                twin.params[name].values[...] = c
            else:
                twin.params[name].values[...] = pprz.params[name].values
        for i in range(20):
            x = random_day_matrix(3, 8, 1000 * round_ + i)
            teacher = random_day_matrix(2, 8, 2000 * round_ + i)
            assert np.array_equal(pprz.forward(x, teacher=teacher).values,
                                  twin.forward(x, teacher=teacher).values)
            np.testing.assert_array_equal(pprz.predict(x), twin.predict(x))
            trials += 1
    assert trials == 100
    report(3, f"constant-vector gates match scalar gates bit for bit, trained and "
              f"forecasting, on {trials} inputs")


def test_c4_metrics_oracle():
    rng = np.random.default_rng(8)
    stub = FixedModel(None)
    checked = 0
    for _ in range(1000):
        t_out = int(rng.integers(1, 4))
        width = 2 * int(rng.integers(2, 9))
        target = (rng.random((t_out, width)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        probs = rng.random((t_out, width))
        threshold = float(rng.uniform(0.2, 0.8))
        sample = Sample("D1", 0, np.zeros((2, width), np.uint8), target)
        stub.predictions = probs
        rep = evaluate(stub, [sample], threshold)
        pred = probs >= threshold
        tp = int((pred & (target == 1)).sum())
        fp = int((pred & (target == 0)).sum())
        fn = int((~pred & (target == 1)).sum())
        tn = int((~pred & (target == 0)).sum())
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (tp, fp, fn, tn)
        assert (rep.precision, rep.recall, rep.f1) == micro_prf(tp, fp, fn)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert rep.precision == p and rep.recall == r and rep.f1 == f1
        checked += 1
    report(4, f"confusion counts and micro P/R/F1 match brute-force recounts "
              f"on {checked} random grids, exactly")


def test_c5_pipeline_determinism(tmp_path):
    out = tmp_path / "artifacts"
    cfg = tmp_path / "run.ini"
    cfg.write_text(tiny_config(epochs=2, seed=12).format(out=out))
    assert main(["gen", "-c", str(cfg)]) == 0
    assert main(["cluster", "-c", str(cfg)]) == 0
    assert main(["compare", "-c", str(cfg)]) == 0
    watched = ["compare_f1.csv", "compare_report.csv", "config.resolved.ini"]
    first = {name: (out / name).read_bytes() for name in watched}
    grid = first["compare_f1.csv"].decode().splitlines()
    assert grid[0] == "model,least,less,more,most,avg"
    assert [row.split(",")[0] for row in grid[1:]] == list(MODEL_KINDS)  # one row per variant
    assert main(["compare", "-c", str(cfg)]) == 0
    for name in watched:
        assert (out / name).read_bytes() == first[name], name
    report(5, "two `compare` runs with identical config and seed are "
              "byte-identical (8 x 4 + avg F1 grid)")


def test_c6_overfit_sanity():
    started = time.time()
    x = random_day_matrix(3, 8, 9)
    day = (np.random.default_rng(10).random(16) < 0.3).astype(np.uint8)
    sample = Sample("D0", 0, x, np.stack([day, day]))
    epochs_needed = {}
    for kind in MODEL_KINDS:
        model = build_model(toy_config(kind, seed=11))
        first = initial_loss(model, sample)
        _, losses = train(model, [sample],
                          TrainSpec(epochs=500, batch_size=1, learning_rate=0.01, seed=12))
        hits = [e for e, loss in enumerate(losses) if loss < 0.01 * first]
        assert hits, f"{kind} never reached 1% of initial loss {first:.4f}"
        epochs_needed[kind] = hits[0] + 1
    elapsed = time.time() - started
    assert elapsed < 300.0
    slowest = max(epochs_needed.values())
    report(6, f"all 8 models overfit one sample below 1% of initial loss "
              f"(slowest: {slowest} epochs; {elapsed:.0f}s < 300s)")


def test_c7_learnability_on_patterned_data():
    started = time.time()
    rep = experiment_run(periodic_market_spec(0), 0)
    f1_scores = [rep.f1]
    if rep.f1 < 0.8:
        f1_scores = []
        for seed in (1, 2, 3):
            f1_scores.append(experiment_run(periodic_market_spec(seed), seed).f1)
        passed = sum(f1 >= 0.8 for f1 in f1_scores)
        assert passed >= 2, f"majority retry failed: {f1_scores}"

    noise_rep = experiment_run(noise_market_spec(0), 0)
    baseline_f1 = 0.0  # all-negative predictor has tp == 0
    assert abs(noise_rep.f1 - baseline_f1) <= 0.1

    elapsed = time.time() - started
    assert elapsed < 900.0
    report(7, f"periodic dealers F1={f1_scores} (bound 0.8), noise dealers "
              f"F1={noise_rep.f1:.3f} within 0.1 of the all-negative baseline "
              f"({elapsed:.0f}s < 900s)")


STATS_CONFIG = tiny_config(
    days=100, bonds=20, periodic_dealers=20, sparse_dealers=0, dense_dealers=0,
    periodic_max_period=3, periodic_min_bonds=3, periodic_max_bonds=5, dense_rate=8.0,
    dense_min_bonds=50, dense_max_bonds=150, cancellation_rate=0.0, top_dealers=20, top_bonds=20,
    t_in=5, t_out=5, stride=3, train_fraction=0.9, kind="{kind}", d_model=32, heads=4, n_layers=2,
    d_ff=64, hidden=64, epochs=6, learning_rate=0.003, seed=0)


def test_c8_covariate_shift_diagnostic(tmp_path):
    logs = {}
    for kind in ("TransRE", "TransPPRZ"):
        out = tmp_path / kind
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(STATS_CONFIG.format(kind=kind, out=out))
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg)]) == 0, (kind, command)
        text = (out / "train_log_single.jsonl").read_text()
        lines = [json.loads(line) for line in text.splitlines()]
        assert [line["epoch"] for line in lines] == list(range(7))
        layers = lines[-1]["layers"]
        assert list(layers) == ["encoder.l0", "encoder.l1", "decoder.l0", "decoder.l1"]
        assert all(variance >= 0.0 for _, variance in layers.values())
        logs[kind] = lines
    re_layers, pprz_layers = (logs[kind][-1]["layers"] for kind in ("TransRE", "TransPPRZ"))
    print("\n[criterion 8] per-layer signal statistics after training "
          "(diagnostic, reported not asserted):")
    print(f"  {'layer':6s} {'RE mean':>10s} {'RE var':>10s} {'PPRZ mean':>10s} {'PPRZ var':>10s}")
    for layer in re_layers:
        print(f"  {layer:6s} {re_layers[layer][0]:10.4f} {re_layers[layer][1]:10.4f} "
              f"{pprz_layers[layer][0]:10.4f} {pprz_layers[layer][1]:10.4f}")
    print("[criterion 8] mean gate per epoch, 0 (as built) to 6 "
          "(diagnostic, reported not asserted):")
    for kind, lines in logs.items():
        for layer in lines[0]["gates"]:
            means = " ".join(f"{line['gates'][layer][1]:7.4f}" for line in lines)
            print(f"  {kind:9s} {layer:10s} {means}")
    report(8, "train logged per-epoch layer statistics and gates for the TransRE "
              "and TransPPRZ units")


def test_c9_windowing_and_split_arithmetic():
    assert split_boundary(249, 0.9) == 224

    rng = np.random.default_rng(13)
    history = market.DealerHistory("D1", (rng.random((20, 6)) < 0.3).astype(np.uint8))
    assert len(windowize(history, 5, 5)) == 11

    leak_checked = 0
    for spec in (periodic_market_spec(1), noise_market_spec(2)):
        records = market.generate_synthetic_market(spec)
        filtered, _, _ = market.apply_trade_filters(records, 20, 20)
        vocab = market.build_vocabulary(filtered)
        histories = market.build_histories(filtered, vocab, spec.days)
        samples = [s for h in histories for s in market.windowize(h, 5, 5)]
        train_s, test_s = split_train_test(samples, spec.days, 0.9)
        boundary = split_boundary(spec.days, 0.9)
        assert train_s and test_s
        assert max(s.start_day + 10 for s in train_s) <= boundary
        assert min(s.start_day for s in test_s) >= boundary
        keys = lambda part: {(s.dealer_id, s.start_day) for s in part}
        assert not (keys(train_s) & keys(test_s))
        leak_checked += len(train_s) + len(test_s)
    report(9, f"boundary(249, 0.9)=224, 11 windows for D=20, and zero "
              f"train/test leakage over {leak_checked} samples")
