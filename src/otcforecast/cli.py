"""Command-line pipeline: gen -> train -> eval / compare.

The activity tiers are derived from the histories wherever a command needs
them; ``cluster`` writes them out for inspection, and no command reads them.

Every command reads one config file, writes its artifacts under the
configured output directory, then an echo of the resolved config, and is
byte-reproducible from (config, seed).  Exit codes: 0 success, 1 usage or
config error, 2 missing, unreadable or unusable artifact path, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import market
from .clustering import (
    TIER_NAMES,
    TIERS,
    compute_dealer_features,
    kmeans_cluster,
    order_clusters,
    save_assignment,
)
from .config import RunConfig, parse_config, write_resolved
from .errors import (
    ArtifactError,
    ConfigurationError,
    ContractError,
    MissingArtifactError,
    NumericError,
    ShapeMismatchError,
)
from .harness import (
    epochs,
    layer_signal_stats,
    score_units,
    tier_rows,
    train,
    training_units,
    write_days,
    write_dealers,
    write_reports,
)
from .models import MODEL_KINDS, TRANSFORMER_KINDS, build_model, check_checkpoint, save_checkpoint
from .seeding import derive_seed

CLUSTER_COLUMNS = TIER_NAMES  # compare_f1.csv's tier columns, in label order

RECORDS_FILE = "records.csv"
VOCAB_FILE = "vocab.csv"
HISTORIES_FILE = "histories.bin"
DEALERS_FILE = "dealers.csv"
DEALERS_HEADER = ("dealer_id", "archetype", "period", "buys", "sells", "universe_width")
CLUSTERS_FILE = "clusters.csv"
REPORT_FILE = "report.csv"
REPORT_DEALERS_FILE = "report_dealers.csv"
COMPARE_FILE = "compare_f1.csv"
COMPARE_REPORT_FILE = "compare_report.csv"
COMPARE_DAYS_FILE = "compare_days.csv"
COMPARE_DEALERS_FILE = "compare_dealers.csv"
RESOLVED_CONFIG_FILE = "config.resolved.ini"

PROBE_WINDOWS = 64  # a Transformer unit's first training windows its layer statistics probe


def _fail(code: int, message: str) -> int:
    """Print ``message`` as a failure's one stderr line, each backslash doubled and then each
    newline escaped, so that no two messages print alike; returns ``code``."""
    print(f"otcforecast: {message}".replace("\\", "\\\\").replace("\n", "\\n"), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise SystemExit(_fail(1, f"error: {message}"))


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"missing artifact {path} (produce it with `otcforecast {producer}`)"
        )
    return path


def _checkpoint_path(out: Path, tag: str) -> Path:
    return out / f"checkpoint_{tag}.ckpt"


def _plan_row(plan: market.Plan) -> tuple:
    """``plan`` as a dealers.csv row: None, an empty cell, where its archetype has no value."""
    ids = [None, None] if plan.basket is None else [
        " ".join(market.BOND_ID.format(b) for b, s in plan.basket if s == side)
        for side in (market.BUY, market.SELL)]
    return (plan.dealer_id, plan.archetype, plan.period, *ids,
            None if plan.universe is None else len(plan.universe))


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    spec = cfg.market_spec()
    records = market.generate_synthetic_market(spec)
    filtered, _, _ = market.apply_trade_filters(
        records, cfg.top_dealers, cfg.top_bonds, cfg.drop_top_bonds
    )
    if not filtered:
        raise ConfigurationError(
            f"the market has no dealer with a record left after the filters "
            f"({len(records)} records generated)"
        )
    market.save_records(out / RECORDS_FILE, records)
    vocab = market.build_vocabulary(filtered)
    market.write_rows(out / VOCAB_FILE, ((bond, vocab.index[bond]) for bond in vocab.bonds))
    histories = market.build_histories(filtered, vocab, spec.days)
    digest = market.save_histories(out / HISTORIES_FILE, histories, spec.days, vocab.size)
    market.write_rows(out / DEALERS_FILE, [("histories_sha256", digest), DEALERS_HEADER,
                                           *map(_plan_row, market.dealer_plans(spec))])
    print(f"wrote {out / RECORDS_FILE} ({len(records)} records)")
    print(f"wrote {out / HISTORIES_FILE} ({len(histories)} dealers, {vocab.size} bonds)")


def _tiers(cfg: RunConfig, histories, days: int):
    """The activity tiers of ``histories``: k-means over each dealer's
    features on the training days, labels ordered least active first."""
    features = compute_dealer_features(histories, market.split_boundary(days, cfg.train_fraction))
    assignment = kmeans_cluster(features, seed=derive_seed(cfg.seed, "cluster"))
    return order_clusters(assignment, features)


def cmd_cluster(cfg: RunConfig, out: Path) -> None:
    histories, days, _, digest = market.load_histories(_require(out / HISTORIES_FILE, "gen"))
    assignment = _tiers(cfg, histories, days)
    save_assignment(out / CLUSTERS_FILE, assignment, digest)
    empty = [str(tier) for tier in range(TIERS) if tier not in assignment.labels.values()]
    if empty:
        warnings.warn(f"cluster: no dealer holds tier {', '.join(empty)} of 0-{TIERS - 1}")
    print(f"wrote {out / CLUSTERS_FILE} ({len(assignment.labels)} dealers, "
          f"{TIERS - len(empty)} populated tiers)")


def _prepare(cfg: RunConfig, out: Path, scoring: bool = False):
    """Load the histories, window and split them, derive the tiers, and
    group both splits into the run granularity's units.

    Every command needs at least one training window, and a ``scoring``
    command at least one test window, checked before any training.
    Returns (vocab size, units, labels, trained_on): the units as
    :func:`training_units` forms them, and what a checkpoint pins besides its
    model config: the loaded histories' digest, the split, the stride that
    chose the windows, and the TrainSpec.
    """
    histories, days, vocab_size, digest = market.load_histories(
        _require(out / HISTORIES_FILE, "gen"))
    samples = [
        s
        for h in histories
        for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)
    ]
    train_samples, test_samples = market.split_train_test(samples, days, cfg.train_fraction)
    split = (f"(days {days}, t_in {cfg.t_in}, t_out {cfg.t_out}, "
             f"train_fraction {cfg.train_fraction})")
    if not train_samples:
        raise ConfigurationError(f"the temporal split leaves no training window {split}")
    if scoring and not test_samples:
        raise ConfigurationError(f"the temporal split leaves no test window {split}")
    labels = _tiers(cfg, histories, days).labels
    units = training_units(cfg.granularity, train_samples, test_samples, labels)
    trained_on = {"histories_sha256": digest, "train_fraction": cfg.train_fraction,
                  "stride": cfg.stride,
                  **{f"train_{name}": value for name, value in vars(cfg.train_spec()).items()}}
    return vocab_size, units, labels, trained_on


def _unit_models(out: Path, config, trained_on: dict, units):
    """One model of the kind, loaded with each unit's checkpoint as the unit is
    consumed: every checkpoint is checked before the first is loaded."""
    model = build_model(config)
    paths = [_require(_checkpoint_path(out, tag), "train") for tag, _, _ in units]
    for path in paths:
        check_checkpoint(path, model, trained_on)
    for path in paths:
        model.params.flat[:] = check_checkpoint(path, model, trained_on)
        yield model


def _fitted_models(config, units, spec):
    """One model of the kind, refitted from its initial parameters to each unit's
    training windows as the unit is consumed: score each fit before drawing the next."""
    model = build_model(config)
    initial = model.params.flat.copy()
    for _, unit_train, _ in units:
        model.params.flat[:] = initial
        # one harness.train call per unit for perfbench's probe: why cmd_train's loop is not reused
        train(model, unit_train, spec)
        yield model


def _log_line(model, epoch: int, loss: float | None, probe) -> str:
    """One train_log line: the kind, epoch and loss, a Transformer's layer
    statistics on ``probe`` and a gated kind's gates as [min, mean, max]."""
    line = {"model": model.config.kind, "epoch": epoch, "loss": loss}
    if model.config.kind in TRANSFORMER_KINDS:
        line["layers"] = layer_signal_stats(model, probe)
    gates = {n.removesuffix(".gate"): model.params[n].values
             for n in model.params.names() if n.endswith(".gate")}
    if gates:
        line["gates"] = {layer: [g.min(), g.mean(), g.max()] for layer, g in gates.items()}
    return json.dumps(line, allow_nan=False) + "\n"


def cmd_train(cfg: RunConfig, out: Path) -> None:
    vocab_size, units, _, trained_on = _prepare(cfg, out)
    model = build_model(cfg.model_config(vocab_size))
    initial = model.params.flat.copy()
    for tag, unit_train, _ in units:
        # a unit that fails must not leave an older checkpoint next to its new log
        _checkpoint_path(out, tag).unlink(missing_ok=True)
        model.params.flat[:] = initial
        probe = unit_train[:PROBE_WINDOWS]
        with open(out / f"train_log_{tag}.jsonl", "w", encoding="utf-8", buffering=1) as log:
            log.write(_log_line(model, 0, None, probe))  # the model as built
            for epoch, loss in enumerate(epochs(model, unit_train, cfg.train_spec()), 1):
                log.write(_log_line(model, epoch, loss, probe))
        save_checkpoint(_checkpoint_path(out, tag), model, trained_on)
        print(f"wrote {_checkpoint_path(out, tag)}")


def cmd_eval(cfg: RunConfig, out: Path) -> None:
    vocab_size, units, labels, trained_on = _prepare(cfg, out, scoring=True)
    models = _unit_models(out, cfg.model_config(vocab_size), trained_on, units)
    table = score_units(cfg.kind, units, models, cfg.threshold, cfg.eval_mode, labels)
    write_reports(out / REPORT_FILE, cfg.granularity, tier_rows(cfg.kind, table))
    write_dealers(out / REPORT_DEALERS_FILE, table)
    print(f"wrote {out / REPORT_FILE} and {out / REPORT_DEALERS_FILE}")


def cmd_compare(cfg: RunConfig, out: Path) -> None:
    """Train every model kind; tabulate per-cluster F1, a pooled avg, counts per day and dealer."""
    vocab_size, units, labels, _ = _prepare(cfg, out, scoring=True)
    # every kind's config is built first, so a bad one fails before any training
    configs = [cfg.model_config(vocab_size, kind) for kind in MODEL_KINDS]
    all_rows, dealers = [], []
    grid = [("model", *CLUSTER_COLUMNS, "avg")]
    for config in configs:
        table = score_units(config.kind, units, _fitted_models(config, units, cfg.train_spec()),
                            cfg.threshold, cfg.eval_mode, labels)
        rows = tier_rows(config.kind, table)
        all_rows.extend(rows)
        dealers.extend(table)
        f1 = {cluster: repr(report.f1) for cluster, report in rows}
        tiers = (f1.get(str(label), "") for label in range(TIERS))
        grid.append((config.kind, *tiers, f1["all"]))
    market.write_rows(out / COMPARE_FILE, grid)
    write_reports(out / COMPARE_REPORT_FILE, cfg.granularity, all_rows)
    write_days(out / COMPARE_DAYS_FILE, cfg.eval_mode,
               [report for cluster, report in all_rows if cluster == "all"])
    write_dealers(out / COMPARE_DEALERS_FILE, dealers)
    for name in (COMPARE_FILE, COMPARE_REPORT_FILE, COMPARE_DAYS_FILE, COMPARE_DEALERS_FILE):
        print(f"wrote {out / name}")


_DISPATCH = {
    "gen": cmd_gen,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="otcforecast",
        description="Synthetic OTC dealer-behavior prediction pipeline",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument(
        "-c", "--config", default=None,
        help="config file (key = value with sections); omitted means all defaults",
    )
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _DISPATCH[args.command](cfg, out)
        write_resolved(cfg, out / RESOLVED_CONFIG_FILE)  # last: a refused command keeps the echo
    except (ConfigurationError, ContractError, ShapeMismatchError) as exc:
        return _fail(1, f"config error: {exc}")
    except MissingArtifactError as exc:
        return _fail(2, str(exc))
    except ArtifactError as exc:
        return _fail(2, f"unreadable artifact {exc}")
    except OSError as exc:  # an artifact or output path that cannot be used
        return _fail(2, f"unusable path: {exc}")
    except UnicodeEncodeError as exc:  # a path the file-system encoding cannot hold
        return _fail(2, f"unusable path {exc.object!r}: {exc}")
    except NumericError as exc:
        return _fail(3, f"numeric failure: {exc}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
