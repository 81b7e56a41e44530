"""Wrappers the benchmark installs around otcforecast's public functions.

Nothing here edits the package: :class:`Patcher` rebinds a function in
every ``otcforecast`` module that holds it (so ``from .harness import
train`` in ``cli`` is covered too) and puts every original back on
:meth:`Patcher.restore`.  Two layers of wrappers use it:

* :class:`Probes`, installed on every run, time the harness boundary
  (``train``, ``evaluate``) and check outputs: every loss and every
  prediction must be finite.  They add a few microseconds per window, plus
  a :func:`reference` timing of about 4 ms before and after each call.
* :class:`Tracer`, installed only on the traced run, records a span at
  each module boundary and for every autodiff op the models call.

Spans live in flat arrays (name id, start, end, parent), because one
traced C7 run opens millions of op spans.  A span's parent is the span
open when it started; every span of one process shares the tracer's run id.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from otcforecast import autodiff, clustering, harness, market, models
from speed import reference

# Every public op the eight models or the training loop call.
OPS = (
    "matmul", "add", "mul", "scale", "add_scalar", "tanh", "sigmoid", "mse_loss",
    "embedding_bag", "layer_norm", "softmax_rows", "transpose", "reshape",
    "slice_cols", "concat_cols", "concat_rows", "stack_rows", "tile_rows",
    "add_rowvec", "mul_rowvec", "scale_by", "multi_head_attention",
)
MODEL_CLASSES = (models.FCModel, models.RecurrentModel, models.TransformerModel)


class Patcher:
    """Rebind package functions and methods; restore() undoes every rebinding."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make) -> None:
        """Replace ``module.name`` by ``make(original)`` wherever it is bound."""
        original = getattr(module, name)
        replacement = functools.wraps(original)(make(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "otcforecast" and not mod_name.startswith("otcforecast."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, functools.wraps(original)(make(original)))
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Probes:
    """Harness-boundary timing and output checks, on in every run."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.units: list[dict] = []  # one entry per harness.train call
        self.evaluations: list[dict] = []  # one entry per harness.evaluate call
        self.nonfinite_windows = 0

    def install(self, patcher: Patcher) -> None:
        patcher.function(harness, "train", self._train)
        patcher.function(harness, "evaluate", self._evaluate)
        for cls in MODEL_CLASSES:
            patcher.method(cls, "predict", self._predict)

    def _train(self, train):
        def probed(model, samples, spec):
            unit = {"kind": model.config.kind, "samples": len(samples), "epochs": 0,
                    "seconds": 0.0, "reference_s": math.nan, "losses": [], "ok": False}
            self.units.append(unit)
            before = reference()
            start = time.perf_counter()
            params, losses = train(model, samples, spec)
            unit["seconds"] = time.perf_counter() - start
            unit["reference_s"] = (before + reference()) / 2
            unit["epochs"] = len(losses)
            unit["losses"] = list(losses)
            unit["ok"] = all(math.isfinite(x) for x in losses)
            return params, losses
        return probed

    def _evaluate(self, evaluate):
        def probed(model, test_samples, *args, **kwargs):
            entry = {"windows": len(test_samples), "seconds": 0.0, "reference_s": math.nan,
                     "counts": None}
            self.evaluations.append(entry)
            before = reference()
            start = time.perf_counter()
            report = evaluate(model, test_samples, *args, **kwargs)
            entry["seconds"] = time.perf_counter() - start
            entry["reference_s"] = (before + reference()) / 2
            entry["counts"] = [report.tp, report.fp, report.fn, report.tn]
            return report
        return probed

    def _predict(self, predict):
        def probed(model, input_days):
            out = predict(model, input_days)
            if not np.isfinite(out).all():
                self.nonfinite_windows += 1
            return out
        return probed

    def summary(self) -> dict:
        """Totals since the last reset, each call's time, and the per-unit
        loss curves for the digest."""
        finals = [u["losses"][-1] for u in self.units if u["losses"]]
        return {
            "train_s": sum(u["seconds"] for u in self.units),
            "trained_samples": sum(u["samples"] * u["epochs"] for u in self.units),
            "epochs": sum(u["epochs"] for u in self.units),
            "evaluate_s": sum(e["seconds"] for e in self.evaluations),
            "windows": sum(e["windows"] for e in self.evaluations),
            "final_loss": sum(finals) / len(finals) if finals else math.nan,
            "units": len(self.units),
            "failed_units": sum(not u["ok"] for u in self.units),
            "nonfinite_windows": self.nonfinite_windows,
            "loss_curves": [[u["kind"], [repr(x) for x in u["losses"]]] for u in self.units],
            "confusion": [e["counts"] for e in self.evaluations],
            "train_s_by_kind": _sum_by(self.units, "kind", "seconds"),
            "train_calls": [[u["seconds"], u["reference_s"]] for u in self.units],
            "evaluate_calls": [[e["seconds"], e["reference_s"]] for e in self.evaluations],
        }


def _sum_by(rows: list[dict], key: str, value: str) -> dict:
    out: dict = {}
    for row in rows:
        out[row[key]] = out.get(row[key], 0.0) + row[value]
    return out


class Tracer:
    """Spans at every module boundary, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open_names(self) -> list[str]:
        return [self.names[self.name_id[i]] for i in self._stack]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        may add counts once the call returns."""
        nid = self._id(name)
        name_ids, starts, ends, parents, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def phase(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def install(self, patcher: Patcher) -> None:
        """Wrap every boundary the per-layer metrics read."""

        def wrap(module, prefix: str, name: str, after=None) -> None:
            patcher.function(module, name, lambda fn: self.span(f"{prefix}.{name}", fn, after))

        def count_len(key: str):
            return lambda args, result: self.count(key, len(result))

        wrap(market, "market", "generate_synthetic_market", count_len("market.records"))
        wrap(market, "market", "windowize", count_len("market.windows"))
        for name in ("apply_trade_filters", "build_vocabulary", "build_histories",
                     "split_train_test", "save_records", "save_histories", "load_histories"):
            wrap(market, "market", name)
        wrap(clustering, "clustering", "compute_dealer_features")
        wrap(clustering, "clustering", "kmeans_cluster",
             lambda args, result: self.count("clustering.kmeans_iters", len(result.wcss_history)))
        # backward() leaves the tape in place, so its size is read afterwards
        wrap(autodiff, "autodiff", "backward",
             lambda args, result: self.count("autodiff.tape_entries", autodiff.tape_size()))
        wrap(autodiff, "autodiff", "adam_step")
        for op in OPS:
            wrap(autodiff, "autodiff.op", op)
        wrap(harness, "harness", "train")
        wrap(harness, "harness", "evaluate")
        for cls in MODEL_CLASSES:
            patcher.method(cls, "forward", lambda fn: self.span("models.forward", fn))
            patcher.method(cls, "predict",
                           lambda fn: self.span("models.predict", fn, self._after_predict))
        tm = models.TransformerModel
        patcher.method(tm, "encode", lambda fn: self.span("models.encode", fn))
        patcher.method(tm, "embed_days", lambda fn: self.span("models.embed", fn))
        patcher.method(tm, "_decode", lambda fn: self.span("models.decode", fn, self._after_decode))

    def _after_predict(self, args, result) -> None:
        model = args[0]
        if isinstance(model, models.TransformerModel):
            self.count("models.decoded_windows")
            self.count("models.useful_positions", model.config.t_out)

    def _after_decode(self, args, result) -> None:
        if "models.predict" in self.open_names():
            self.count("models.decoder_positions", args[1].shape[0])

    # ---- aggregation -----------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return names, start, end, parent

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        names, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        selfs = np.bincount(names, weights=dur - child, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def calls_within(self, outer: str) -> dict[str, int]:
        """Per span name, calls made inside any span named ``outer``.

        Spans are stored in start order, so the descendants of span i are
        the spans after it that start before it ends.
        """
        if outer not in self._ids:
            return {}
        names, start, end, _ = self._arrays()
        inside = np.zeros(len(names), dtype=bool)
        for i in np.flatnonzero(names == self._ids[outer]):
            stop = int(np.searchsorted(start, end[i], side="left"))
            inside[i + 1:stop] = True
        counts = np.bincount(names[inside], minlength=len(self.names))
        return {name: int(counts[nid]) for nid, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write every span as one row of (name, start, end, parent) plus the run id."""
        names, start, end, parent = self._arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=names, start=start, end=end, parent=parent)


def digest(payload) -> str:
    """SHA-256 of a JSON-serialisable payload in canonical form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def layer_metrics(tracer: Tracer, probe: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``probe`` is :meth:`Probes.summary` of the same run; it supplies the
    number of trained samples (windows x epochs) that per-sample counts
    divide by.  Metrics of a layer a workload never calls read 0.
    """
    totals = tracer.totals()
    counts = tracer.counts
    in_train = tracer.calls_within("harness.train")
    samples = max(probe["trained_samples"], 1)

    def seconds(*names: str) -> float:
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def self_seconds(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "market.gen_s": (seconds("market.generate_synthetic_market"), "s"),
        "market.filter_s": (seconds("market.apply_trade_filters"), "s"),
        "market.histories_s": (seconds("market.build_vocabulary", "market.build_histories"), "s"),
        "market.windowize_s": (seconds("market.windowize", "market.split_train_test"), "s"),
        "market.records": (counts.get("market.records", 0), "count"),
        "market.windows": (counts.get("market.windows", 0), "count"),
        "market.io_s": (seconds("market.save_records", "market.save_histories",
                                "market.load_histories"), "s"),
        "market.load_histories.calls": (calls("market.load_histories"), "count"),
        "clustering.features_s": (seconds("clustering.compute_dealer_features"), "s"),
        "clustering.kmeans_s": (seconds("clustering.kmeans_cluster"), "s"),
        "clustering.kmeans_iters": (counts.get("clustering.kmeans_iters", 0), "count"),
        "autodiff.backward_s": (seconds("autodiff.backward"), "s"),
        "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
        "autodiff.adam_s": (seconds("autodiff.adam_step"), "s"),
        "autodiff.adam.calls": (calls("autodiff.adam_step"), "count"),
        "autodiff.tape_entries_per_sample": (
            ratio(counts.get("autodiff.tape_entries", 0), calls("autodiff.backward")),
            "entries/sample"),
    }
    for op in OPS:
        name = f"autodiff.op.{op}"
        m[f"{name}.calls_per_sample"] = (in_train.get(name, 0) / samples, "calls/sample")
        m[f"{name}.self_s"] = (self_seconds(name), "s")
    positions = counts.get("models.decoder_positions", 0)
    m.update({
        "models.forward_s": (seconds("models.forward"), "s"),
        "models.encode_s": (seconds("models.encode"), "s"),
        "models.embed_s": (seconds("models.embed"), "s"),
        "models.predict_s": (seconds("models.predict"), "s"),
        "models.decoder_positions_per_window": (
            ratio(positions, counts.get("models.decoded_windows", 0)), "positions/window"),
        "models.decode_useful_ratio": (
            ratio(counts.get("models.useful_positions", 0), positions), "ratio"),
        "harness.train_s": (seconds("harness.train"), "s"),
        "harness.train_epoch_s": (ratio(seconds("harness.train"), probe["epochs"]), "s"),
        "harness.train.self_s": (self_seconds("harness.train"), "s"),
        "harness.evaluate_s": (seconds("harness.evaluate"), "s"),
        "harness.evaluate.self_s": (self_seconds("harness.evaluate"), "s"),
        "harness.units": (calls("harness.train"), "count"),
    })
    for kind in models.MODEL_KINDS:
        m[f"harness.train_s.{kind}"] = (probe["train_s_by_kind"].get(kind, 0.0), "s")
    for command in ("gen", "cluster", "compare"):
        m[f"cli.{command}_s"] = (seconds(f"cli.{command}"), "s")
    return m
