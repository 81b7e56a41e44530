"""Training loops, thresholded evaluation, and the granularity experiment.

Training is mini-batch Adam on the mean-squared error over all T_out x 2V
output cells, with a seeded shuffle per epoch; each mini-batch is one
stacked forward and backward pass.  Evaluation forecasts stacked chunks of
windows in lockstep, thresholds the predicted probabilities and pools
confusion counts over every (sample, day, bond, side) decision; precision,
recall and F1 are micro-averaged from those pooled counts.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import OptimizerState, Tensor
from .clustering import ClusterAssignment
from .errors import ContractError, NumericError, ShapeMismatchError
from .market import Sample
from .models import TRANSFORMER_KINDS, ModelConfig, build_model
from .seeding import rng_for

GRANULARITIES = ("individual", "cluster", "single")
EVAL_CHUNK = 256  # windows per stacked forecast; bounds evaluation memory


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.01
    threshold: float = 0.5
    seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.threshold < 1.0:
            raise ContractError(f"threshold {self.threshold} outside (0, 1)")


@dataclass
class EvalReport:
    model_kind: str
    granularity: str
    cluster: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    per_cluster: dict[int, "EvalReport"] | None = None

    @classmethod
    def from_counts(cls, model_kind, granularity, cluster, tp, fp, fn, tn) -> "EvalReport":
        precision, recall, f1 = micro_prf(tp, fp, fn)
        return cls(model_kind, granularity, cluster, tp, fp, fn, tn, precision, recall, f1)


@dataclass
class LayerStats:
    """Mean and population variance of each layer's post-residual output."""

    model_kind: str
    tag: str
    stats: dict[str, tuple[float, float]]


def micro_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 with the zero-denominator-is-zero rule."""
    if min(tp, fp, fn) < 0:
        raise ContractError("confusion counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _stack(samples: list[Sample], attr: str) -> np.ndarray:
    return np.stack([getattr(s, attr) for s in samples])


def _chunks(samples: list[Sample]):
    for lo in range(0, len(samples), EVAL_CHUNK):
        yield samples[lo:lo + EVAL_CHUNK]


def train(model, train_samples: list[Sample], spec: TrainSpec) -> tuple[object, list[float]]:
    """Mini-batch Adam training; returns the model's params and per-epoch loss.

    Each mini-batch is one stacked forward and backward pass on the mean
    squared error over all of its cells, which is the mean of the
    per-sample losses.  The per-epoch value is the mean per-sample loss
    seen during that epoch.  A non-finite loss or parameter gradient
    aborts with NumericError before the optimizer step, so the parameters
    stay finite.  Optional early stop when the epoch loss has not improved
    by at least 0.1% (relative) for ``patience`` consecutive epochs.
    """
    if not train_samples:
        raise ContractError("train() needs a nonempty training set")
    params = model.params.tensors()
    state = OptimizerState(learning_rate=spec.learning_rate)
    losses: list[float] = []
    best = math.inf
    stale = 0
    n = len(train_samples)
    for epoch in range(spec.epochs):
        order = rng_for(spec.seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, spec.batch_size):
            batch = [train_samples[int(i)] for i in order[lo:lo + spec.batch_size]]
            target = _stack(batch, "target_days").astype(np.float64)
            ad.reset_tape()
            ad.zero_grads(params)
            pred = model.forward(_stack(batch, "input_days"), teacher=target)
            loss = ad.mse_loss(pred, Tensor(target))
            batch_loss = loss.item() * len(batch)
            if not math.isfinite(batch_loss):
                raise NumericError(f"non-finite loss in epoch {epoch}")
            ad.backward(loss)
            if not all(np.isfinite(p.grad).all() for p in params):
                raise NumericError(f"non-finite gradient in epoch {epoch}")
            ad.adam_step(params, [p.grad for p in params], state)
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


def initial_loss(model, samples: list[Sample]) -> float:
    """Mean per-sample MSE of the untrained model (diagnostic helper)."""
    total = 0.0
    with ad.no_grad():
        for chunk in _chunks(samples):
            target = _stack(chunk, "target_days").astype(np.float64)
            pred = model.forward(_stack(chunk, "input_days"), teacher=target)
            diff = pred.values - target
            total += float((diff * diff).mean(axis=(-2, -1)).sum())
    return total / len(samples)


def _confusion(pred_binary: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-window (tp, fp, fn, tn) counts of stacked (windows, ...) decisions."""
    p = pred_binary.reshape(len(pred_binary), -1).astype(bool)
    t = target.reshape(len(target), -1).astype(bool)
    tp = (p & t).sum(axis=1)
    fp = (p & ~t).sum(axis=1)
    fn = (~p & t).sum(axis=1)
    return np.stack([tp, fp, fn, t.shape[1] - tp - fp - fn], axis=1).astype(np.int64)


def evaluate(
    model,
    test_samples: list[Sample],
    threshold: float,
    mode: str = "per_day",
    cluster_of: dict[str, int] | None = None,
    granularity: str = "single",
    cluster_tag: str = "all",
) -> EvalReport:
    """Threshold predictions and micro-average over all decision cells.

    ``per_day`` scores every output day; ``union`` collapses predictions
    and targets over the window by elementwise max before scoring.  With
    ``cluster_of`` the report also carries per-cluster sub-reports.
    """
    if not test_samples:
        raise ContractError("evaluate() needs a nonempty test set")
    if mode not in ("per_day", "union"):
        raise ContractError(f"unknown evaluation mode {mode!r}")
    kind = model.config.kind
    if cluster_of is not None:
        for s in test_samples:
            if s.dealer_id not in cluster_of:
                raise ContractError(f"dealer {s.dealer_id} missing from cluster assignment")
        labels, label_index = np.unique(
            [cluster_of[s.dealer_id] for s in test_samples], return_inverse=True)
        by_cluster = np.zeros((len(labels), 4), dtype=np.int64)
    totals = np.zeros(4, dtype=np.int64)
    done = 0
    for chunk in _chunks(test_samples):
        inputs = _stack(chunk, "input_days")
        probs = model.predict(inputs)
        target = _stack(chunk, "target_days")
        if probs.shape != target.shape:
            raise ShapeMismatchError(
                f"predict returned shape {probs.shape} for inputs {inputs.shape}, "
                f"targets {target.shape}"
            )
        if mode == "union":
            counts = _confusion(probs.max(axis=-2) >= threshold, _stack(chunk, "target_union"))
        else:
            counts = _confusion(probs >= threshold, target)
        totals += counts.sum(axis=0)
        if cluster_of is not None:
            np.add.at(by_cluster, label_index[done:done + len(chunk)], counts)
        done += len(chunk)
    report = EvalReport.from_counts(kind, granularity, cluster_tag, *totals.tolist())
    if cluster_of is not None:
        report.per_cluster = {
            label: EvalReport.from_counts(kind, granularity, str(label), *row.tolist())
            for label, row in zip(labels.tolist(), by_cluster)
        }
    return report


def layer_signal_stats(model, probe_samples: list[Sample], tag: str = "") -> LayerStats:
    """Per-layer mean/variance of post-residual activations on a probe batch.

    Runs stacked teacher-forced forwards so encoder and decoder layers see
    the same batch; statistics pool over samples, positions and channels.
    """
    kind = model.config.kind
    if kind not in TRANSFORMER_KINDS:
        raise ContractError(f"layer stats need a transformer kind, got {kind}")
    if not probe_samples:
        raise ContractError("layer_signal_stats() needs a nonempty probe batch")
    collected: dict[str, list[np.ndarray]] = {}
    with ad.no_grad():
        for chunk in _chunks(probe_samples):
            trace: list[tuple[str, np.ndarray]] = []
            model.forward(_stack(chunk, "input_days"), teacher=_stack(chunk, "target_days"),
                          trace=trace)
            for name, values in trace:
                collected.setdefault(name, []).append(values.reshape(-1))
    stats = {}
    for name in collected:
        pooled = np.concatenate(collected[name])
        stats[name] = (float(pooled.mean()), float(pooled.var()))
    return LayerStats(model_kind=kind, tag=tag, stats=stats)


# ---------------------------------------------------------------------------
# granularity experiment
# ---------------------------------------------------------------------------


def _cluster_label(labels: dict[str, int], dealer: str) -> int:
    if dealer not in labels:
        raise ContractError(f"dealer {dealer} missing from cluster assignment")
    return labels[dealer]


def training_units(
    granularity: str,
    train_samples: list[Sample],
    test_samples: list[Sample],
    assignment: ClusterAssignment | dict[str, int],
) -> list[tuple[str, list[Sample], list[Sample]]]:
    """Group both splits by the unit key: (unit tag, unit train, unit test).

    ``single`` is one unit, ``cluster`` one per cluster label and
    ``individual`` one per dealer, in key order.  A unit exists only where
    there are training samples; test samples of any other key are skipped
    with a warning.
    """
    labels = assignment.labels if isinstance(assignment, ClusterAssignment) else assignment
    if granularity == "single":
        key, tag = (lambda s: 0), (lambda k: "single")
    elif granularity == "cluster":
        key, tag = (lambda s: _cluster_label(labels, s.dealer_id)), "cluster{}".format
    elif granularity == "individual":
        key, tag = (lambda s: s.dealer_id), "dealer_{}".format
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

    Returns one row per cluster label, in label order, then the pooled
    "all" row.  Units without test samples are skipped with a warning.
    """
    counts: dict[int, np.ndarray] = {}
    for tag, model, unit_test in units:
        if not unit_test:
            warnings.warn(f"{granularity}: unit {tag} has no test samples; skipped")
            continue
        report = evaluate(
            model, unit_test, threshold, mode=mode,
            cluster_of=labels, granularity=granularity, cluster_tag=tag,
        )
        for label, sub in report.per_cluster.items():
            counts.setdefault(label, np.zeros(4, dtype=np.int64))
            counts[label] += (sub.tp, sub.fp, sub.fn, sub.tn)
    rows = [
        EvalReport.from_counts(kind, granularity, str(label), *counts[label].tolist())
        for label in sorted(counts)
    ]
    pooled = sum(counts.values(), np.zeros(4, dtype=np.int64))
    rows.append(EvalReport.from_counts(kind, granularity, "all", *pooled.tolist()))
    return rows


def run_granularity_experiment(
    config: ModelConfig,
    train_samples: list[Sample],
    test_samples: list[Sample],
    assignment: ClusterAssignment | dict[str, int],
    spec: TrainSpec,
    granularities: tuple[str, ...] = GRANULARITIES,
    mode: str = "per_day",
) -> list[EvalReport]:
    """Train and evaluate one model kind at each requested granularity.

    Every unit model starts from the same seeded initialization, so the
    degenerate one-dealer market yields identical scores across
    granularities.  Rows aggregate confusion counts per cluster plus an
    "all" row (see :func:`score_units`).
    """
    labels = assignment.labels if isinstance(assignment, ClusterAssignment) else assignment
    for s in train_samples + test_samples:
        _cluster_label(labels, s.dealer_id)
    rows: list[EvalReport] = []
    for granularity in granularities:
        units = training_units(granularity, train_samples, test_samples, labels)
        trained = [(tag, model, unit_test)
                   for tag, model, _, unit_test in train_units(config, units, spec)]
        rows.extend(score_units(config.kind, granularity, trained, spec.threshold, mode, labels))
    return rows


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_reports(path, rows: list[EvalReport]) -> None:
    """CSV table: model, granularity, cluster, tp, fp, fn, precision, recall, f1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "granularity", "cluster", "tp", "fp", "fn", "precision", "recall", "f1"])
        for r in rows:
            writer.writerow(
                [r.model_kind, r.granularity, r.cluster, r.tp, r.fp, r.fn,
                 repr(r.precision), repr(r.recall), repr(r.f1)]
            )


def write_layer_stats(path, stats_list: list[LayerStats]) -> None:
    """CSV table: model, layer, mean, variance (one block per checkpoint tag)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "layer", "mean", "variance"])
        for stats in stats_list:
            for layer, (mean, variance) in stats.stats.items():
                writer.writerow([stats.model_kind, layer, repr(mean), repr(variance)])
