"""Training loops, thresholded evaluation, and the per-unit experiment driver.

Training is mini-batch Adam on the mean-squared error over all T_out x 2V
output cells, with a seeded shuffle per epoch; each mini-batch is one
stacked forward and backward pass.  Evaluation forecasts stacked chunks of
windows in lockstep, thresholds the predicted probabilities and pools
confusion counts over every (sample, day, bond, side) decision; precision,
recall and F1 are micro-averaged from those pooled counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields
from urllib.parse import quote

import numpy as np

from . import autodiff as ad
from .autodiff import OptimizerState, Tensor
from .errors import ContractError, NumericError, ShapeMismatchError
from .market import Sample, write_rows
from .models import TRANSFORMER_KINDS, ModelConfig, build_model
from .seeding import rng_for

GRANULARITIES = ("individual", "cluster", "single")
EVAL_MODES = ("per_day", "union")
EVAL_CHUNK = 256  # windows per stacked forecast; bounds evaluation memory


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.01
    seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.patience is not None and self.patience < 1:
            raise ContractError(f"patience must be >= 1 or None, got {self.patience}")


@dataclass
class EvalReport:
    model: str
    granularity: str
    cluster: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, model, granularity, cluster, tp, fp, fn, tn) -> "EvalReport":
        precision, recall, f1 = micro_prf(tp, fp, fn)
        return cls(model, granularity, cluster, tp, fp, fn, tn, precision, recall, f1)


def micro_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 with the zero-denominator-is-zero rule."""
    if min(tp, fp, fn) < 0:
        raise ContractError("confusion counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _batches(samples: list[Sample], size: int = EVAL_CHUNK, order=None):
    """Yield stacked (inputs, targets) of ``size`` windows at a time.

    Windows are taken in ``order`` (a sequence of indices) when given,
    else in list order; the arrays keep the windows' uint8 dtype.
    """
    if order is None:
        order = range(len(samples))
    for lo in range(0, len(samples), size):
        batch = [samples[int(i)] for i in order[lo:lo + size]]
        yield np.stack([s.input_days for s in batch]), np.stack([s.target_days for s in batch])


def train(model, train_samples: list[Sample], spec: TrainSpec) -> tuple[object, list[float]]:
    """Mini-batch Adam training; returns the model's params and per-epoch loss.

    Each mini-batch is one stacked forward and backward pass on the mean
    squared error over all of its cells, which is the mean of the
    per-sample losses.  The per-epoch value is the mean per-sample loss
    seen during that epoch.  A non-finite loss or parameter gradient
    aborts with NumericError before the optimizer step, so the parameters
    stay finite.  Optional early stop when the epoch loss has not improved
    by at least 0.1% (relative) for ``patience`` consecutive epochs.
    Adam updates the packed parameter vector from one flat gradient.
    """
    if not train_samples:
        raise ContractError("train() needs a nonempty training set")
    params = model.params.tensors()
    values = model.params.flat
    grad = np.empty_like(values)
    state = OptimizerState(learning_rate=spec.learning_rate)
    losses: list[float] = []
    best = math.inf
    stale = 0
    n = len(train_samples)
    for epoch in range(spec.epochs):
        order = rng_for(spec.seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        for inputs, target in _batches(train_samples, spec.batch_size, order):
            target = target.astype(np.float64)
            ad.reset_tape()
            pred = model.forward(inputs, teacher=target)
            loss = ad.mse_loss(pred, Tensor(target))
            batch_loss = loss.item() * len(inputs)
            if not math.isfinite(batch_loss):
                raise NumericError(f"non-finite loss in epoch {epoch}")
            np.concatenate([g.reshape(-1) for g in ad.backward(loss, params)], out=grad)
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in epoch {epoch}")
            ad.adam_step(values, grad, state)
            epoch_loss += batch_loss
        ad.reset_tape()
        epoch_loss /= n
        losses.append(epoch_loss)
        if spec.patience is not None:
            if epoch_loss < best * (1.0 - 1e-3):
                best = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= spec.patience:
                    break
    return model.params, losses


def _confusion(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pooled (tp, fp, fn, tn) counts over every cell of two decision arrays."""
    t = target.astype(bool)
    tp = np.count_nonzero(pred & t)
    fp = np.count_nonzero(pred) - tp
    fn = np.count_nonzero(t) - tp
    return np.array([tp, fp, fn, t.size - tp - fp - fn], dtype=np.int64)


def evaluate(model, test_samples: list[Sample], threshold: float,
             mode: str = "per_day") -> EvalReport:
    """Threshold predictions and micro-average over all decision cells.

    ``per_day`` scores every output day; ``union`` collapses predictions
    and targets over the window by elementwise max before scoring.  The
    report pools the counts of every given window; :func:`score_units`
    splits them by cluster.  A non-finite forecast raises NumericError.
    """
    if not test_samples:
        raise ContractError("evaluate() needs a nonempty test set")
    if mode not in EVAL_MODES:
        raise ContractError(f"unknown evaluation mode {mode!r}")
    totals = np.zeros(4, dtype=np.int64)
    for inputs, target in _batches(test_samples):
        with np.errstate(all="ignore"):  # numpy's warnings give way to the check below
            probs = model.predict(inputs)
        if probs.shape != target.shape:
            raise ShapeMismatchError(
                f"predict returned shape {probs.shape} for inputs {inputs.shape}, "
                f"targets {target.shape}"
            )
        if not np.isfinite(probs).all():
            raise NumericError(f"non-finite forecast from the {model.config.kind} model")
        if mode == "union":
            probs, target = probs.max(axis=-2), target.max(axis=-2)
        totals += _confusion(probs >= threshold, target)
    return EvalReport.from_counts(model.config.kind, "single", "all", *totals.tolist())


def layer_signal_stats(model, probe_samples: list[Sample]) -> dict[str, tuple[float, float]]:
    """Per-layer mean and population variance of post-residual activations
    on a probe batch, as ``{layer: (mean, variance)}`` in layer order.

    Runs stacked teacher-forced forwards so encoder and decoder layers see
    the same batch; statistics pool over samples, positions and channels.
    A non-finite statistic raises NumericError.
    """
    kind = model.config.kind
    if kind not in TRANSFORMER_KINDS:
        raise ContractError(f"layer stats need a transformer kind, got {kind}")
    if not probe_samples:
        raise ContractError("layer_signal_stats() needs a nonempty probe batch")
    collected: dict[str, list[np.ndarray]] = {}
    stats = {}
    with ad.no_grad(), np.errstate(all="ignore"):  # numpy's warnings give way to the check below
        for inputs, target in _batches(probe_samples):
            trace: list[tuple[str, np.ndarray]] = []
            model.forward(inputs, teacher=target, trace=trace)
            for name, values in trace:
                collected.setdefault(name, []).append(values.reshape(-1))
        for name in collected:
            pooled = np.concatenate(collected[name])
            stats[name] = (float(pooled.mean()), float(pooled.var()))
    if not np.isfinite(list(stats.values())).all():
        raise NumericError(f"non-finite layer statistic of the {kind} model")
    return stats


# ---------------------------------------------------------------------------
# experiment driver: training_units -> train_units -> score_units
# ---------------------------------------------------------------------------


def _cluster_label(labels: dict[str, int], dealer: str) -> int:
    if dealer not in labels:
        raise ContractError(f"dealer {dealer} missing from cluster assignment")
    return labels[dealer]


def training_units(
    granularity: str,
    train_samples: list[Sample],
    test_samples: list[Sample],
    labels: dict[str, int],
) -> list[tuple[str, list[Sample], list[Sample]]]:
    """Group both splits by the unit key: (unit tag, unit train, unit test).

    ``single`` is one unit, ``cluster`` one per cluster label and
    ``individual`` one per dealer, in key order.  A dealer's tag holds its
    id percent-encoded (every byte but ASCII letters, digits and ``_.-~``),
    so unit file names are ASCII and one-to-one with the ids.  A unit
    exists only where there are training samples; test samples of any
    other key are skipped with a warning.
    """
    if granularity == "single":
        key, tag = (lambda s: 0), (lambda k: "single")
    elif granularity == "cluster":
        key, tag = (lambda s: _cluster_label(labels, s.dealer_id)), "cluster{}".format
    elif granularity == "individual":
        key, tag = (lambda s: s.dealer_id), (lambda k: "dealer_" + quote(k, safe=""))
    else:
        raise ContractError(f"unknown granularity {granularity!r}")
    train_by: dict = {}
    test_by: dict = {}
    for samples, grouped in ((train_samples, train_by), (test_samples, test_by)):
        for s in samples:
            grouped.setdefault(key(s), []).append(s)
    for k in sorted(test_by.keys() - train_by.keys()):
        warnings.warn(f"{granularity}: unit {tag(k)} has no training samples; skipped")
    return [(tag(k), train_by[k], test_by.get(k, [])) for k in sorted(train_by)]


def train_units(config: ModelConfig, units, spec: TrainSpec):
    """Train a fresh model per (tag, unit train, unit test) unit.

    Yields (tag, model, per-epoch losses, unit test) as each unit finishes.
    Every unit model starts from the same seeded initialization.
    """
    for tag, unit_train, unit_test in units:
        model = build_model(config)
        _, losses = train(model, unit_train, spec)
        yield tag, model, losses, unit_test


def score_units(
    kind: str,
    granularity: str,
    units,
    threshold: float,
    mode: str,
    labels: dict[str, int],
) -> list[EvalReport]:
    """Evaluate each (tag, model, unit test) unit and pool counts per cluster.

    Each unit's test windows are scored once per cluster label among them.
    Returns one row per cluster label, in label order, then the pooled
    "all" row.  Units without test samples are skipped with a warning.
    """
    counts: dict[int, np.ndarray] = {}
    for tag, model, unit_test in units:
        if not unit_test:
            warnings.warn(f"{granularity}: unit {tag} has no test samples; skipped")
            continue
        by_label: dict[int, list[Sample]] = {}
        for s in unit_test:
            by_label.setdefault(_cluster_label(labels, s.dealer_id), []).append(s)
        for label in sorted(by_label):
            report = evaluate(model, by_label[label], threshold, mode=mode)
            counts.setdefault(label, np.zeros(4, dtype=np.int64))
            counts[label] += (report.tp, report.fp, report.fn, report.tn)
    rows = [
        EvalReport.from_counts(kind, granularity, str(label), *counts[label].tolist())
        for label in sorted(counts)
    ]
    pooled = sum(counts.values(), np.zeros(4, dtype=np.int64))
    rows.append(EvalReport.from_counts(kind, granularity, "all", *pooled.tolist()))
    return rows


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_reports(path, rows: list[EvalReport]) -> None:
    """CSV table: one column per :class:`EvalReport` field, in field order."""
    write_rows(path, [[f.name for f in fields(EvalReport)], *map(astuple, rows)])


def write_layer_stats(path, kind: str,
                      stats_by_unit: dict[str, dict[str, tuple[float, float]]]) -> None:
    """CSV table: unit, model, layer, mean, variance (one block per unit tag)."""
    write_rows(path, [("unit", "model", "layer", "mean", "variance"),
                      *((tag, kind, layer, repr(mean), repr(variance))
                        for tag, stats in stats_by_unit.items()
                        for layer, (mean, variance) in stats.items())])
