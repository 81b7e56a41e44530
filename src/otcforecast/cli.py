"""Command-line pipeline: gen -> cluster -> train -> eval / compare / stats.

Every command reads one config file, writes its artifacts under the
configured output directory next to an echo of the resolved config, and is
byte-reproducible from (config, seed).  Exit codes: 0 success, 1 usage or
config error, 2 missing or unreadable artifact, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import market
from .clustering import (
    compute_dealer_features,
    kmeans_cluster,
    load_assignment,
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
    layer_signal_stats,
    run_granularity_experiment,
    score_units,
    train_units,
    training_units,
    write_layer_stats,
    write_reports,
)
from .models import MODEL_KINDS, TRANSFORMER_KINDS, build_model, load_checkpoint, save_checkpoint
from .seeding import derive_seed

COMMANDS = ("gen", "cluster", "train", "eval", "compare", "stats")
CLUSTER_COLUMNS = ("least", "less", "more", "most")

RECORDS_FILE = "records.csv"
VOCAB_FILE = "vocab.csv"
HISTORIES_FILE = "histories.bin"
CLUSTERS_FILE = "clusters.csv"
REPORT_FILE = "report.csv"
COMPARE_FILE = "compare_f1.csv"
COMPARE_REPORT_FILE = "compare_report.csv"
STATS_FILE = "layer_stats.csv"
RESOLVED_CONFIG_FILE = "config.resolved.ini"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"missing artifact {path} (produce it with `otcforecast {producer}`)"
        )
    return path


def _checkpoint_path(out: Path, tag: str) -> Path:
    return out / f"checkpoint_{tag}.ckpt"


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    spec = cfg.market_spec()
    records = market.generate_synthetic_market(spec)
    market.save_records(out / RECORDS_FILE, records)
    filtered, _, _ = market.apply_trade_filters(
        records, cfg.top_dealers, cfg.top_bonds, cfg.drop_top_bonds
    )
    vocab = market.build_vocabulary(filtered)
    with open(out / VOCAB_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        for bond in vocab.bonds:
            writer.writerow([bond, vocab.index[bond]])
    histories = market.build_histories(filtered, vocab, spec.days)
    market.save_histories(out / HISTORIES_FILE, histories, spec.days, vocab.size)
    print(f"wrote {out / RECORDS_FILE} ({len(records)} records)")
    print(f"wrote {out / HISTORIES_FILE} ({len(histories)} dealers, {vocab.size} bonds)")


def cmd_cluster(cfg: RunConfig, out: Path) -> None:
    histories, days, _ = market.load_histories(_require(out / HISTORIES_FILE, "gen"))
    boundary = market.split_boundary(days, cfg.train_fraction)
    features = compute_dealer_features(histories, boundary)
    assignment = kmeans_cluster(features, k=4, seed=derive_seed(cfg.seed, "cluster"))
    assignment = order_clusters(assignment, features)
    save_assignment(out / CLUSTERS_FILE, assignment)
    print(f"wrote {out / CLUSTERS_FILE} ({len(assignment.labels)} dealers, k=4)")


def _prepare(cfg: RunConfig, out: Path, scoring: bool = False):
    """Load the histories, window and split them, and read the labels.

    Labels are read when the granularity needs them or the command is
    ``scoring`` (per-cluster rows); otherwise they are empty and
    clusters.csv is optional.  A scoring command also needs at least one
    test window, checked before any training.
    Returns (vocab size, train samples, test samples, labels).
    """
    histories, days, vocab_size = market.load_histories(_require(out / HISTORIES_FILE, "gen"))
    samples = [
        s
        for h in histories
        for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)
    ]
    train_samples, test_samples = market.split_train_test(samples, days, cfg.train_fraction)
    if scoring and not test_samples:
        raise ConfigurationError(
            f"the temporal split leaves no test window (days {days}, t_in {cfg.t_in}, "
            f"t_out {cfg.t_out}, train_fraction {cfg.train_fraction})"
        )
    labels = {}
    if scoring or cfg.granularity != "single":
        labels = load_assignment(_require(out / CLUSTERS_FILE, "cluster"))
    return vocab_size, train_samples, test_samples, labels


def _load_model(cfg: RunConfig, out: Path, vocab_size: int, tag: str):
    path = _require(_checkpoint_path(out, tag), "train")
    model = build_model(cfg.model_config(vocab_size))
    model.params.load_state(load_checkpoint(path))
    return model


def cmd_train(cfg: RunConfig, out: Path) -> None:
    vocab_size, train_samples, test_samples, labels = _prepare(cfg, out)
    units = training_units(cfg.granularity, train_samples, test_samples, labels)
    for tag, model, losses, _ in train_units(cfg.model_config(vocab_size), units, cfg.train_spec()):
        save_checkpoint(_checkpoint_path(out, tag), model.params)
        with open(out / f"loss_{tag}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(losses):
                writer.writerow([epoch, repr(loss)])
        print(f"wrote {_checkpoint_path(out, tag)}")


def cmd_eval(cfg: RunConfig, out: Path) -> None:
    vocab_size, train_samples, test_samples, labels = _prepare(cfg, out, scoring=True)
    units = training_units(cfg.granularity, train_samples, test_samples, labels)
    models = [(tag, _load_model(cfg, out, vocab_size, tag), unit_test)
              for tag, _, unit_test in units]
    rows = score_units(cfg.kind, cfg.granularity, models, cfg.threshold, cfg.eval_mode, labels)
    write_reports(out / REPORT_FILE, rows)
    print(f"wrote {out / REPORT_FILE}")


def cmd_compare(cfg: RunConfig, out: Path) -> None:
    """Train every model kind and tabulate per-cluster F1 plus a pooled avg."""
    vocab_size, train_samples, test_samples, labels = _prepare(cfg, out, scoring=True)
    all_rows = []
    grid = []
    for kind in MODEL_KINDS:
        rows = run_granularity_experiment(
            cfg.model_config(vocab_size, kind), train_samples, test_samples, labels,
            cfg.train_spec(), (cfg.granularity,), cfg.eval_mode,
        )
        all_rows.extend(rows)
        by_cluster = {row.cluster: row.f1 for row in rows}
        grid.append(
            [kind]
            + [
                repr(by_cluster[str(label)]) if str(label) in by_cluster else ""
                for label in range(len(CLUSTER_COLUMNS))
            ]
            + [repr(by_cluster["all"])]
        )
    with open(out / COMPARE_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", *CLUSTER_COLUMNS, "avg"])
        writer.writerows(grid)
    write_reports(out / COMPARE_REPORT_FILE, all_rows)
    print(f"wrote {out / COMPARE_FILE}")
    print(f"wrote {out / COMPARE_REPORT_FILE}")


def cmd_stats(cfg: RunConfig, out: Path) -> None:
    if cfg.kind not in TRANSFORMER_KINDS:
        raise ConfigurationError(
            f"stats needs a transformer kind, got {cfg.kind} "
            f"(one of {', '.join(TRANSFORMER_KINDS)})"
        )
    vocab_size, train_samples, test_samples, labels = _prepare(cfg, out)
    units = training_units(cfg.granularity, train_samples, test_samples, labels)
    stats_list = [
        layer_signal_stats(_load_model(cfg, out, vocab_size, tag),
                           unit_train[: cfg.probe_samples], tag=tag)
        for tag, unit_train, _ in units
    ]
    write_layer_stats(out / STATS_FILE, stats_list)
    print(f"wrote {out / STATS_FILE}")


_DISPATCH = {
    "gen": cmd_gen,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="otcforecast",
        description="Synthetic OTC dealer-behavior prediction pipeline",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "-c", "--config", default=None,
        help="config file (key = value with sections); omitted means all defaults",
    )
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_resolved(cfg, out / RESOLVED_CONFIG_FILE)
        _DISPATCH[args.command](cfg, out)
    except (ConfigurationError, ContractError, ShapeMismatchError) as exc:
        print(f"otcforecast: config error: {exc}", file=sys.stderr)
        return 1
    except MissingArtifactError as exc:
        print(f"otcforecast: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"otcforecast: unreadable artifact {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"otcforecast: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
