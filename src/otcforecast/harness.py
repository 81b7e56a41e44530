"""Training loops, thresholded evaluation, and the per-unit experiment driver.

Training is mini-batch Adam on the mean-squared error over all T_out x 2V
output cells, with a seeded shuffle per epoch; each mini-batch is one
stacked forward and backward pass.  Evaluation forecasts stacked chunks of
windows in lockstep, thresholds the predicted probabilities and counts the
(bond, side) decisions' confusion per window and output day; every report
sums those counts and micro-averages precision, recall and F1 from the sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from urllib.parse import quote

import numpy as np

from . import autodiff as ad
from .autodiff import OptimizerState, Tensor
from .errors import ContractError, NumericError, ShapeMismatchError
from .market import Sample, write_rows
from .models import TRANSFORMER_KINDS
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

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """One model's int64 confusion counts, (windows or dealers, days, 4) or one
    dealer's (days, 4), with the last axis tp, fp, fn, tn and t_out days (1 in
    ``union`` mode); the four counts and micro-averaged scores below pool them all."""

    model: str
    counts: np.ndarray

    @property
    def pooled(self) -> list[int]:
        """tp, fp, fn, tn summed over every window and day, as Python ints."""
        return self.counts.reshape(-1, 4).sum(axis=0).tolist()

    tp, fp, fn, tn = (property(lambda self, i=i: self.pooled[i]) for i in range(4))
    precision, recall, f1 = (property(lambda self, i=i: micro_prf(*self.pooled[:3])[i])
                             for i in range(3))


def micro_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 with the zero-denominator-is-zero rule."""
    if min(tp, fp, fn) < 0:
        raise ContractError("confusion counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _batches(samples: list[Sample], size: int, order=None):
    """Yield stacked (inputs, targets) of ``size`` windows at a time.

    Windows are taken in ``order`` (a sequence of indices) when given,
    else in list order; the arrays keep the windows' uint8 dtype.
    """
    if order is None:
        order = range(len(samples))
    for lo in range(0, len(samples), size):
        batch = [samples[int(i)] for i in order[lo:lo + size]]
        yield np.array([s.input_days for s in batch]), np.array([s.target_days for s in batch])


def epochs(model, train_samples: list[Sample], spec: TrainSpec):
    """Mini-batch Adam training for exactly ``spec.epochs`` epochs; yields each
    epoch's loss after its last Adam step.

    Each mini-batch is one stacked forward and backward pass on the mean
    squared error over all of its cells, which is the mean of the
    per-sample losses.  The per-epoch value is the mean per-sample loss
    seen during that epoch.  A non-finite loss or parameter gradient
    aborts with NumericError before the optimizer step, so the parameters
    stay finite.  Backward fills ``params.views`` of one gradient, built
    once; no later step allocates one.
    """
    if not train_samples:
        raise ContractError("training needs a nonempty training set")
    params = model.params.tensors()
    grad = np.empty_like(model.params.flat)
    grads = model.params.views(grad)
    state = OptimizerState(learning_rate=spec.learning_rate)
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
            ad.backward(loss, params, out=grads)
            ad.reset_tape()  # frees the step's activations before the check and Adam
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in epoch {epoch}")
            ad.adam_step(model.params.flat, grad, state)
            epoch_loss += batch_loss
        epoch_loss /= n
        yield epoch_loss


def train(model, train_samples: list[Sample], spec: TrainSpec) -> tuple[object, list[float]]:
    """Run :func:`epochs` to the end; returns the model's params and per-epoch loss."""
    return model.params, list(epochs(model, train_samples, spec))


def _confusion(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(tp, fp, fn, tn) counts per window and day of two (windows, days, cells)
    decision arrays, stacked on a last axis."""
    t = target.astype(bool)
    tp = np.count_nonzero(pred & t, axis=-1)
    fp = np.count_nonzero(pred, axis=-1) - tp
    fn = np.count_nonzero(t, axis=-1) - tp
    return np.stack([tp, fp, fn, t.shape[-1] - tp - fp - fn], axis=-1, dtype=np.int64)


def evaluate(model, test_samples: list[Sample], threshold: float,
             mode: str = "per_day") -> EvalReport:
    """Threshold the forecasts of ``test_samples`` and count every decision
    cell per window and output day.

    ``per_day`` scores every output day; ``union`` collapses predictions
    and targets over the window by elementwise max before scoring, as one
    day.  The report's counts keep the windows in the given order, so any
    grouping of them sums its rows; :func:`score_units` sums them per
    dealer.  A non-finite forecast raises NumericError.
    """
    if not test_samples:
        raise ContractError("evaluate() needs a nonempty test set")
    if mode not in EVAL_MODES:
        raise ContractError(f"unknown evaluation mode {mode!r}")
    counts = []
    for inputs, target in _batches(test_samples, EVAL_CHUNK):
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
            probs, target = probs.max(axis=-2, keepdims=True), target.max(axis=-2, keepdims=True)
        counts.append(_confusion(probs >= threshold, target))
    return EvalReport(model.config.kind, np.concatenate(counts))


def layer_signal_stats(model, probe_samples: list[Sample]) -> dict[str, tuple[float, float]]:
    """Per-layer mean and population variance of post-residual activations
    on a probe batch, as ``{layer: (mean, variance)}`` in layer order.

    Runs one stacked teacher-forced forward so encoder and decoder layers
    see the same batch; statistics pool over samples, positions and channels.
    A non-finite statistic raises NumericError.
    """
    kind = model.config.kind
    if kind not in TRANSFORMER_KINDS:
        raise ContractError(f"layer stats need a transformer kind, got {kind}")
    if not probe_samples:
        raise ContractError("layer_signal_stats() needs a nonempty probe batch")
    with ad.no_grad(), np.errstate(all="ignore"):  # numpy's warnings give way to the check below
        inputs, target = next(_batches(probe_samples, len(probe_samples)))
        trace: list[tuple[str, np.ndarray]] = []
        model.forward(inputs, teacher=target, trace=trace)
        stats = {name: (float(values.mean()), float(values.var())) for name, values in trace}
    if not np.isfinite(list(stats.values())).all():
        raise NumericError(f"non-finite layer statistic of the {kind} model")
    return stats


# ---------------------------------------------------------------------------
# experiment driver: training_units -> score_units
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


def score_units(
    kind: str,
    units,
    models,
    threshold: float,
    mode: str,
    labels: dict[str, int],
) -> list[tuple[str, int, EvalReport]]:
    """Evaluate each (tag, unit train, unit test) unit with its model, taken in
    step from ``models`` (exactly one per unit, drawn for every unit), by one
    :func:`evaluate` call in unit order, and sum each dealer's windows (one
    contiguous run of the unit) with one ``np.add.reduceat``.  Returns the dealer
    table, (dealer, tier, report of its (days, 4) counts) in ascending id; units
    without test samples are skipped with a warning."""
    table = []
    for (tag, _, unit_test), model in zip(units, models, strict=True):
        if not unit_test:
            warnings.warn(f"unit {tag} has no test samples; skipped")
            continue
        ids = [s.dealer_id for s in unit_test]
        starts = [i for i, dealer in enumerate(ids) if i == 0 or dealer != ids[i - 1]]
        dealers = [(ids[i], _cluster_label(labels, ids[i])) for i in starts]
        if len(starts) != len(set(ids)):
            raise ContractError(f"unit {tag}: a dealer's test windows are not one contiguous run")
        sums = np.add.reduceat(evaluate(model, unit_test, threshold, mode=mode).counts, starts)
        table += [(*dealer, EvalReport(kind, c)) for dealer, c in zip(dealers, sums)]
    return sorted(table, key=lambda row: row[0])


def tier_rows(kind: str, table) -> list[tuple[str, EvalReport]]:
    """A (tier, report) row per tier in order, then "all", each stacking its dealers' counts."""
    keys = [*sorted({tier for _, tier, _ in table}), "all"]
    stacks = ([r.counts for _, tier, r in table if key in (tier, "all")] for key in keys)
    return [(str(key), EvalReport(kind, np.array(stack or np.zeros((0, 0, 4)), dtype=np.int64)))
            for key, stack in zip(keys, stacks)]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _write_scored(path, keys: tuple[str, ...], rows) -> None:
    """CSV table of (``model``, *``keys``, counts) rows: their tp, fp, fn, tn and
    micro-averaged precision, recall and F1 after ``model`` and the ``keys`` columns."""
    write_rows(path, [("model", *keys, "tp", "fp", "fn", "tn", "precision", "recall", "f1"),
                      *((*key, *counts, *micro_prf(*counts[:3])) for *key, counts in rows)])


def write_reports(path, granularity: str, rows: list[tuple[str, EvalReport]]) -> None:
    """CSV table: a report per row, its unit's ``granularity`` and ``cluster`` after ``model``."""
    _write_scored(path, ("granularity", "cluster"),
                  ((r.model, granularity, cluster, r.pooled) for cluster, r in rows))


def write_dealers(path, table) -> None:
    """CSV table: a dealer ``table``'s rows, each dealer's id and tier after ``model``."""
    _write_scored(path, ("dealer", "tier"), ((r.model, d, tier, r.pooled) for d, tier, r in table))


def write_days(path, mode: str, reports: list[EvalReport]) -> None:
    """CSV table: each report's counts summed per output day 1.., or in one ``union`` row."""
    _write_scored(path, ("day",), ((r.model, "union" if mode == "union" else day, counts)
                                   for r in reports
                                   for day, counts in enumerate(r.counts.sum(axis=0).tolist(), 1)))
