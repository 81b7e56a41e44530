"""Run one benchmark workload in this process and write what it measured.

``run.py`` starts this script once per workload run, with the BLAS thread
count pinned in the environment and ``src`` on ``PYTHONPATH``, plus a few
``--setup-only`` starts that stop once the model is built, to time set-up.

A run repeats one repetition of its workload ``--reps`` times.  Every
repetition does the same work from the same inputs: it prepares the data,
builds a fresh model, trains it in fixed chunks of windows and forecasts
fixed chunks of windows, through the package's public functions.  Work
depends only on (workload, seed, reps), never on elapsed time, so every
repetition, and every run with the same arguments, produces bit-identical
outputs.  One repetition takes about 3.5-5.5 s on a 2-core x86 box at the
commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import otcforecast
from otcforecast import cli, clustering, harness, market, models
from otcforecast.config import parse_config
from otcforecast.harness import TrainSpec
from otcforecast.market import MarketSpec
from otcforecast.models import ModelConfig
from otcforecast.seeding import derive_seed

from instrument import Patcher, Probes, Tracer, digest, layer_metrics
from speed import at_nominal_speed

TRAIN_CHUNK = 60  # windows per harness.train call: one timed part
FORECAST_CHUNK = 40  # windows per harness.evaluate call: one timed part


class Run:
    """What one workload run records: phase times and output checks."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self.checks: list[tuple[str, bool]] = []
        self.outputs: dict = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        with self.tracer.phase(name) if self.tracer else nullcontext():
            yield
        self.phases[name] = time.perf_counter() - start

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


def _check_f1(run: Run, f1: float) -> None:
    run.outputs["f1"] = repr(f1)
    run.check("F1 in [0, 1]", 0.0 <= f1 <= 1.0)


def _seeded_subset(samples: list, size: int, seed: int, label: str) -> list:
    """A fixed seeded choice of ``size`` samples, kept in their order."""
    if size >= len(samples):
        return list(samples)
    rng = np.random.default_rng(derive_seed(seed, label))
    return [samples[int(i)] for i in np.sort(rng.choice(len(samples), size=size, replace=False))]


def _train_in_chunks(model, samples: list, spec: TrainSpec) -> None:
    """One epoch over ``samples``, one harness.train call per chunk."""
    for i, lo in enumerate(range(0, len(samples), TRAIN_CHUNK)):
        harness.train(model, samples[lo:lo + TRAIN_CHUNK],
                      replace(spec, epochs=1, seed=derive_seed(spec.seed, "chunk", i)))


def _forecast_in_chunks(model, samples: list, threshold: float) -> float:
    """Forecast ``samples``, one harness.evaluate call per chunk; return micro F1."""
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(0, len(samples), FORECAST_CHUNK):
        report = harness.evaluate(model, samples[lo:lo + FORECAST_CHUNK], threshold)
        counts += [report.tp, report.fp, report.fn, report.tn]
    return harness.micro_prf(*counts[:3].tolist())[2]


class C7Pprz:
    """The C7 recipe's market and model: TransPPRZ on 20 periodic dealers.

    A repetition trains one epoch over the 540 train windows and forecasts
    the 20 test windows plus a seeded 320 of the stride-1 windows.
    """

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.spec = MarketSpec(
            days=100, bonds=20, periodic_dealers=20, sparse_dealers=0, dense_dealers=0,
            periodic_period_range=(2, 3), periodic_bonds_range=(3, 5),
            periodic_buy_prob=0.6, cancellation_rate=0.0, seed=seed,
        )
        self.train_limit = 24 if tiny else None
        self.forecast_windows = 24 if tiny else 320
        self.config = ModelConfig(kind="TransPPRZ", vocab_size=self.spec.bonds, t_in=5, t_out=5,
                                  d_model=32, heads=4, n_layers=2, d_ff=64, seed=seed)
        models.build_model(self.config)

    def prep(self):
        spec = self.spec
        records = market.generate_synthetic_market(spec)
        filtered, _, _ = market.apply_trade_filters(records, 20, 20)
        vocab = market.build_vocabulary(filtered)
        histories = market.build_histories(filtered, vocab, spec.days)
        windows = [s for h in histories for s in market.windowize(h, 5, 5, stride=3)]
        train_set, test_set = market.split_train_test(windows, spec.days, 0.9)
        forecast_set = [s for h in histories for s in market.windowize(h, 5, 5)]
        forecast_set = _seeded_subset(forecast_set, self.forecast_windows, self.seed, "bench-forecast")
        return vocab, train_set[:self.train_limit], test_set, forecast_set

    def run(self, run: Run) -> None:
        with run.phase("prep"):
            vocab, train_set, test_set, forecast_set = self.prep()
        model = models.build_model(replace(self.config, vocab_size=vocab.size))
        train_spec = TrainSpec(batch_size=8, learning_rate=0.003, seed=self.seed)
        with run.phase("train"):
            _train_in_chunks(model, train_set, train_spec)
        with run.phase("forecast"):
            f1 = harness.evaluate(model, test_set, 0.5).f1
            _forecast_in_chunks(model, forecast_set, 0.5)
        _check_f1(run, f1)


class DeskLstm:
    """The default config's full preparation, then LSTM on seeded slices.

    A repetition trains one epoch over a seeded 240 of the train windows and
    forecasts a seeded 400 of the 3,200 test windows.
    """

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        cfg = replace(parse_config(None), seed=seed, kind="LSTM", epochs=1)
        if tiny:
            cfg = replace(cfg, days=120, bonds=30, periodic_dealers=6, sparse_dealers=6,
                          dense_dealers=3, dense_min_bonds=5, dense_max_bonds=10)
        self.cfg = cfg
        self.train_windows = 16 if tiny else 240
        self.forecast_windows = 24 if tiny else 400
        models.build_model(cfg.model_config(cfg.bonds))

    def prep(self):
        cfg = self.cfg
        spec = cfg.market_spec()
        records = market.generate_synthetic_market(spec)
        filtered, _, _ = market.apply_trade_filters(
            records, cfg.top_dealers, cfg.top_bonds, cfg.drop_top_bonds)
        vocab = market.build_vocabulary(filtered)
        histories = market.build_histories(filtered, vocab, spec.days)
        windows = [s for h in histories for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)]
        train_set, test_set = market.split_train_test(windows, spec.days, cfg.train_fraction)
        features = clustering.compute_dealer_features(
            histories, market.split_boundary(spec.days, cfg.train_fraction))
        assignment = clustering.kmeans_cluster(features, k=4, seed=derive_seed(cfg.seed, "cluster"))
        clustering.order_clusters(assignment, features)
        return vocab, train_set, test_set

    def run(self, run: Run) -> None:
        cfg = self.cfg
        with run.phase("prep"):
            vocab, train_set, test_set = self.prep()
        train_slice = _seeded_subset(train_set, self.train_windows, cfg.seed, "bench-slice")
        test_slice = _seeded_subset(test_set, self.forecast_windows, cfg.seed, "bench-forecast")
        model = models.build_model(cfg.model_config(vocab.size))
        with run.phase("train"):
            _train_in_chunks(model, train_slice, cfg.train_spec())
        with run.phase("forecast"):
            f1 = _forecast_in_chunks(model, test_slice, cfg.threshold)
        _check_f1(run, f1)


COMPARE_INI = """\
[market]
days = {days}
bonds = {bonds}
periodic_dealers = {periodic}
sparse_dealers = {sparse}
dense_dealers = {dense}
dense_min_bonds = {dense_min}
dense_max_bonds = {dense_max}

[filters]
top_dealers = {dealers}
top_bonds = {bonds}

[window]
t_in = 5
t_out = 5
stride = 3

[split]
train_fraction = 0.7

[model]
d_model = {d_model}
heads = 2
n_layers = 1
d_ff = {d_ff}
hidden = {d_model}

[train]
epochs = {epochs}
batch_size = 16
learning_rate = 0.003

[run]
seed = {seed}
granularity = cluster
output_dir = {out}
"""


class CompareCluster:
    """The CLI gen -> cluster -> compare pipeline at cluster granularity.

    A repetition runs the three commands once, with one training epoch.
    """

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        sizes = dict(days=60, bonds=60, periodic=6, sparse=6, dense=4, dense_min=20,
                     dense_max=40, d_model=16, d_ff=32, epochs=1)
        if tiny:
            sizes.update(bonds=12, periodic=4, sparse=2, dense=2, dense_min=4,
                         dense_max=8, d_model=4, d_ff=8, epochs=1)
        dealers = sizes["periodic"] + sizes["sparse"] + sizes["dense"]
        self.out = workdir / "out"
        self.ini = workdir / "run.ini"
        self.ini.write_text(COMPARE_INI.format(seed=seed, out=self.out, dealers=dealers, **sizes))
        cfg = parse_config(str(self.ini))
        models.build_model(cfg.model_config(cfg.bonds))

    def _cli(self, run: Run, command: str) -> None:
        with run.phase(f"cli.{command}"):
            code = cli.main([command, "-c", str(self.ini)])
        run.check(f"`{command}` exits 0 (got {code})", code == 0)

    def run(self, run: Run) -> None:
        with run.phase("prep"):
            self._cli(run, "gen")
            self._cli(run, "cluster")
        self._cli(run, "compare")
        blob = (self.out / cli.COMPARE_FILE).read_bytes()
        run.outputs["compare_f1.csv"] = blob.decode("utf-8")
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
        run.check("compare_f1.csv has a header and one row per model kind",
                  len(rows) == 1 + len(models.MODEL_KINDS)
                  and rows[0] == ["model", *cli.CLUSTER_COLUMNS, "avg"]
                  and [r[0] for r in rows[1:]] == list(models.MODEL_KINDS))
        run.check("every compare F1 lies in [0, 1]",
                  all(len(r) == 6 and all(_in_unit(x) for x in r[1:]) for r in rows[1:]))


def _in_unit(cell: str) -> bool:
    try:
        return 0.0 <= float(cell) <= 1.0
    except ValueError:
        return False


WORKLOADS = {"c7_pprz": C7Pprz, "desk_lstm": DeskLstm, "compare_cluster": CompareCluster}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def execute(workload, reps: int = 1, tracer: Tracer | None = None) -> dict:
    """Run ``reps`` repetitions of one workload under the probes (and the
    tracer, if given), then restore every wrapped function."""
    patcher = Patcher()
    probes = Probes()
    if tracer:  # the probes go outside the tracer's spans, so their timing is not traced
        tracer.install(patcher)
    probes.install(patcher)
    done: list[dict] = []
    error = None
    try:
        for _ in range(reps):
            probes.reset()
            run = Run(tracer)
            start = time.perf_counter()
            try:
                workload.run(run)
            finally:
                done.append(_repetition(run, probes.summary(), time.perf_counter() - start))
    except Exception:  # a crashed workload is reported as a failed operation
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        patcher.restore()
    digests = {rep["digest"] for rep in done}
    parts = {(len(rep["probe"]["train_calls"]), len(rep["probe"]["evaluate_calls"])) for rep in done}
    checks = [c for rep in done for c in rep["checks"]]
    checks.append(("every repetition gives bit-identical outputs", len(digests) == len(parts) == 1))
    result = {"reps": done, "error": error, "checks": checks, "digest": done[0]["digest"],
              "nominal": nominal_times(done)}
    if tracer:
        result["layers"] = layer_metrics(tracer, done[0]["probe"])
    return result


def _repetition(run: Run, probe: dict, wall: float) -> dict:
    return {
        "wall_s": wall,
        "phases": run.phases,
        "probe": probe,
        "checks": run.checks,
        "digest": digest({"losses": probe["loss_curves"], "confusion": probe["confusion"],
                          **run.outputs}),
        "outputs": run.outputs,
    }


def nominal_times(reps: list[dict]) -> dict:
    """Training, forecasting and repetition time at nominal speed.

    Each harness.train call is one part, each harness.evaluate call another,
    and the rest of a repetition a third kind.  A part's time is put at
    nominal speed against the reference timed next to it; the median of
    that over the repetitions, which do identical work, is summed.
    """
    def median_parts(key: str) -> list[float]:
        per_rep = [[at_nominal_speed(t, ref) for t, ref in rep["probe"][key]] for rep in reps]
        return [statistics.median(part) for part in zip(*per_rep)]

    def rest(rep: dict) -> float:
        calls = rep["probe"]["train_calls"] + rep["probe"]["evaluate_calls"]
        if not calls:
            return rep["wall_s"]
        seconds = rep["wall_s"] - sum(t + 2 * ref for t, ref in calls)  # two references per call
        return at_nominal_speed(seconds, statistics.median(ref for _, ref in calls))

    train = sum(median_parts("train_calls"))
    evaluate = sum(median_parts("evaluate_calls"))
    return {"train_s": train, "evaluate_s": evaluate,
            "wall_s": train + evaluate + statistics.median(rest(rep) for rep in reps)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        args.out.write_text(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{time.time_ns()}")
    result = execute(workload, args.reps, tracer)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    result["package"] = str(Path(otcforecast.__file__).resolve())
    if tracer is not None:
        tracer.dump(args.workdir / "spans.npz")
        result["run_id"] = tracer.run_id
        result["spans"] = len(tracer.start)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
