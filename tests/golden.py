"""Golden outputs: the results of fixed training runs and ``compare`` runs,
pinned in ``golden.json`` so that a change which should move no result is
checked to move none (``test_golden.py``).

    PYTHONPATH=src python tests/golden.py --write   # regenerate golden.json

Pinned for each of the eight model kinds at the size of acceptance
criterion 7 (C7 market, d_model 32), trained 2 epochs over 96 seeded
windows: the per-epoch losses, the SHA-256 and 8 seeded projections of the
final ``Parameters.flat``, the confusion counts of 40 forecast windows, and
the SHA-256 and 8 seeded projections of their forecast probabilities.  Pinned for a
``gen -> cluster -> compare`` of ``helpers.TINY_CONFIG`` at each
granularity: the SHA-256 of ``clusters.csv``, ``compare_f1.csv`` and
``compare_report.csv``.  Pinned for a ``gen`` of ``helpers.TINY_CONFIG`` at
each of three seeds: the SHA-256 of ``records.csv``, ``vocab.csv`` and
``histories.bin``.

A projection is the exactly rounded dot product (``math.fsum``) of the
values with a seeded standard-normal vector, so it does not depend on the
BLAS.  The trained values do: OpenBLAS picks its kernels by CPU at run time
(its *core*), and kernels of two cores may round apart.  So the file names
the numpy version and the runtime OpenBLAS core it was written under, and
the SHA-256s are compared only under both, but for ``gen``'s: no BLAS
product enters them, so they are compared under the numpy version alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from otcforecast import cli, market
from otcforecast.harness import TrainSpec, evaluate, train
from otcforecast.models import MODEL_KINDS, ModelConfig, build_model

from helpers import TINY_CONFIG

GOLDEN_FILE = Path(__file__).with_name("golden.json")
PROJECTIONS = 8
TRAIN_WINDOWS = 96
FORECAST_WINDOWS = 40
TRAIN_SPEC = TrainSpec(epochs=2, batch_size=8, learning_rate=0.003, seed=0)
COMPARE_FILES = (cli.CLUSTERS_FILE, cli.COMPARE_FILE, cli.COMPARE_REPORT_FILE)
GEN_FILES = (cli.RECORDS_FILE, cli.VOCAB_FILE, cli.HISTORIES_FILE)
GEN_SEEDS = (0, 1, 2)


def blas_core() -> str | None:
    """The core that numpy's runtime OpenBLAS dispatches to, or None where
    no bundled OpenBLAS reports one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "blas_core": blas_core()}


def projections(values: np.ndarray, seed: int) -> list[float]:
    x = np.ravel(values).astype(np.float64)
    basis = np.random.default_rng(seed).standard_normal((PROJECTIONS, x.size))
    return [math.fsum(row * x) for row in basis]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def c7_windows():
    """(V, training windows, forecast windows), drawn without overlap by a
    seeded permutation of every window of the C7 periodic market."""
    spec = market.MarketSpec(
        days=100, bonds=20, periodic_dealers=20, sparse_dealers=0, dense_dealers=0,
        periodic_period_range=(2, 3), periodic_bonds_range=(3, 5),
        periodic_buy_prob=0.6, cancellation_rate=0.0, seed=0,
    )
    filtered, _, _ = market.apply_trade_filters(market.generate_synthetic_market(spec), 20, 20)
    vocab = market.build_vocabulary(filtered)
    samples = [s for h in market.build_histories(filtered, vocab, spec.days)
               for s in market.windowize(h, 5, 5, stride=3)]
    order = np.random.default_rng(0).permutation(len(samples))
    picked = [samples[i] for i in order[:TRAIN_WINDOWS + FORECAST_WINDOWS]]
    return vocab.size, picked[:TRAIN_WINDOWS], picked[TRAIN_WINDOWS:]


def kind_results(kind: str, vocab_size: int, train_windows, forecast_windows) -> dict:
    model = build_model(ModelConfig(kind=kind, vocab_size=vocab_size, t_in=5, t_out=5,
                                    d_model=32, heads=4, n_layers=2, d_ff=64, seed=0))
    params, losses = train(model, train_windows, TRAIN_SPEC)
    report = evaluate(model, forecast_windows, 0.5)
    probs = model.predict(np.stack([s.input_days for s in forecast_windows]))
    return {
        "losses": losses,
        "params_sha256": _sha256(params.flat.astype("<f8").tobytes()),
        "params_projections": projections(params.flat, 1),
        "counts": [report.tp, report.fp, report.fn, report.tn],
        "forecast_sha256": _sha256(probs.astype("<f8").tobytes()),
        "forecast_projections": projections(probs, 2),
    }


def digests(text: str, commands: tuple[str, ...], names: tuple[str, ...]) -> dict:
    """SHA-256 per file of ``names`` after ``commands`` run on the config ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        config = Path(tmp, "run.ini")
        config.write_text(text.format(out=out), encoding="utf-8")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore", UserWarning)  # units without test windows
            for command in commands:
                if cli.main([command, "-c", str(config)]) != 0:
                    raise RuntimeError(f"otcforecast {command} failed on\n{text}")
        return {name: _sha256((out / name).read_bytes()) for name in names}


def compare_digests(granularity: str) -> dict:
    """SHA-256 per file of a tiny gen -> cluster -> compare at ``granularity``."""
    text = TINY_CONFIG.replace("granularity = single", f"granularity = {granularity}")
    return digests(text, ("gen", "cluster", "compare"), COMPARE_FILES)


def gen_digests(seed: int) -> dict:
    """SHA-256 per file of a tiny gen at run ``seed``."""
    return digests(TINY_CONFIG.replace("seed = 3", f"seed = {seed}"), ("gen",), GEN_FILES)


def compute() -> dict:
    vocab_size, train_windows, forecast_windows = c7_windows()
    return {
        "environment": environment(),
        "kinds": {kind: kind_results(kind, vocab_size, train_windows, forecast_windows)
                  for kind in MODEL_KINDS},
        "compare": {granularity: compare_digests(granularity)
                    for granularity in ("single", "cluster", "individual")},
        "gen": {str(seed): gen_digests(seed) for seed in GEN_SEEDS},
    }


def load() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    GOLDEN_FILE.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")
