"""Config parsing and end-to-end command-line pipeline tests."""

import codecs
import csv
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import otcforecast
from otcforecast import cli, harness, market
from otcforecast.cli import main
from otcforecast.clustering import load_assignment
from otcforecast.config import PARSERS, RunConfig, parse_config, write_resolved
from otcforecast.errors import ArtifactError, ConfigurationError
from otcforecast.harness import TrainSpec, score_units, train_units, training_units, write_reports
from otcforecast.market import MarketSpec
from otcforecast.models import MODEL_KINDS, ModelConfig, load_checkpoint
from otcforecast.seeding import derive_seed

from helpers import TINY_CONFIG


def ascii_locale_runner():
    """A function running one CLI command as a subprocess under the C locale
    with UTF-8 mode off; skips the test where that locale still prefers UTF-8."""
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(otcforecast.__file__).parents[1])}
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True, check=True)
    if codecs.lookup(probe.stdout.strip()).name == "utf-8":
        pytest.skip("the C locale still prefers UTF-8 here")

    def run(command, cfg_path):
        return subprocess.run(
            [sys.executable, "-m", "otcforecast.cli", command, "-c", str(cfg_path)],
            env=env, capture_output=True, text=True)

    return run


def rename_dealers(path, ids):
    """Rewrite a histories.bin with its first ``len(ids)`` dealers renamed to ``ids``;
    returns every dealer id of the file."""
    histories, days, vocab_size = market.load_histories(path)
    assert len(histories) >= len(ids)
    for h, ident in zip(histories, ids):
        h.dealer_id = ident
    market.save_histories(path, histories, days, vocab_size)
    return [h.dealer_id for h in histories]


def write_config(tmp_path, text=None, **format_args):
    path = tmp_path / "run.ini"
    out = format_args.pop("out", tmp_path / "artifacts")
    path.write_text((text or TINY_CONFIG).format(out=out, **format_args))
    return path, out


# a non-default valid and an invalid raw value per RunConfig field
SETTING_VALUES = {
    "days": ("30", "0"),
    "bonds": ("7", "-1"),
    "periodic_dealers": ("3", "-1"),
    "sparse_dealers": ("0", "2.5"),
    "dense_dealers": ("1", "x"),
    "periodic_min_period": ("3", "0"),
    "periodic_max_period": ("9", "0"),
    "periodic_min_bonds": ("1", "0"),
    "periodic_max_bonds": ("8", ""),
    "periodic_buy_prob": ("0.25", "1.5"),
    "sparse_rate": ("0.0", "-0.1"),
    "dense_rate": ("2.5", "-1"),
    "dense_min_bonds": ("10", "-1"),
    "dense_max_bonds": ("200", "-1"),
    "cancellation_rate": ("1.0", "2"),
    "top_dealers": ("12", "0"),
    "top_bonds": ("9", "0"),
    "drop_top_bonds": ("yes", "maybe"),
    "t_in": ("7", "0"),
    "t_out": ("2", "0"),
    "stride": ("3", "0"),
    "train_fraction": ("0.75", "1.0"),
    "kind": ("LSTM", "MLP"),
    "d_model": ("32", "0"),
    "heads": ("8", "0"),
    "n_layers": ("1", "0"),
    "d_ff": ("16", "0"),
    "hidden": ("16", "0"),
    "epochs": ("0", "-1"),
    "batch_size": ("4", "0"),
    "learning_rate": ("0.5", "0"),
    "threshold": ("0.3", "1"),
    "patience": ("3", "0"),
    "seed": ("-7", "1.5"),
    "granularity": ("cluster", "global"),
    "output_dir": ("runs/other", "out\0x"),
    "eval_mode": ("union", "max"),
    "probe_samples": ("8", "0"),
}


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg.top_dealers == 200
        assert cfg.t_in == 5
        assert cfg.train_fraction == 0.9
        assert cfg.threshold == 0.5
        assert cfg.kind == "TransPPRZ"

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path) == parse_config(None)

    def test_colon_delimiter_and_nonstandard_t_in(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[window]\nt_in: 7\n")
        assert parse_config(path).t_in == 7

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[window]\nt_inn = 5\n")
        with pytest.raises(ConfigurationError, match="t_inn"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[windows]\nt_in = 5\n")
        with pytest.raises(ConfigurationError, match="windows"):
            parse_config(path)

    def test_invalid_value_names_key_and_constraint(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[window]\nt_in = 0\n")
        with pytest.raises(ConfigurationError, match="t_in must be an integer >= 1"):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "absent.ini")

    def test_heads_divisibility_checked(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\nkind = TransRE\nd_model = 6\nheads = 4\n")
        with pytest.raises(ConfigurationError, match="divisible"):
            parse_config(path)

    def test_resolved_echo_round_trips(self, tmp_path):
        # an indented continuation line makes a multi-line output_dir
        for out in (tmp_path / "artifacts", "runs/a\n  b"):
            src, _ = write_config(tmp_path, out=out)
            cfg = parse_config(src)
            echoed = tmp_path / "resolved.ini"
            write_resolved(cfg, echoed)
            assert parse_config(echoed) == cfg

    def test_patience_empty_means_none(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[train]\npatience =\n")
        assert parse_config(path).patience is None
        path.write_text("[train]\npatience = 4\n")
        assert parse_config(path).patience == 4

    def test_default_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[DEFAULT]\nseed = 1\n")
        with pytest.raises(ConfigurationError, match="DEFAULT"):
            parse_config(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("t_in = 5\n")  # key before any section header
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[window]\nt_in = 5\nt_in = 6\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config(path)

    def test_odd_transformer_d_model_rejected_at_parse(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(f"[model]\nkind = TransFV\nd_model = 7\nheads = 1\n"
                        f"[run]\noutput_dir = {tmp_path / 'out'}\n")
        with pytest.raises(ConfigurationError, match="even d_model"):
            parse_config(path)
        assert main(["gen", "-c", str(path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "Infinity"])
    @pytest.mark.parametrize("key", [key for key in fields(RunConfig) if key.type == "float"],
                             ids=lambda key: key.name)
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        path = tmp_path / "c.ini"
        path.write_text(f"[{key.metadata['section']}]\n{key.name} = {raw}\n")
        message = f"[{key.metadata['section']}] {key.name} must be {key.metadata['constraint']}"
        with pytest.raises(ConfigurationError, match=re.escape(f"{message}, got {raw!r}")):
            parse_config(path)

    def test_non_finite_rate_exits_1_before_gen(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(
            "dense_rate = 2.0", "dense_rate = inf"))
        assert main(["gen", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[market] dense_rate must be a float >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", fields(RunConfig), ids=lambda key: key.name)
    def test_every_setting_round_trips_and_names_its_constraint(self, tmp_path, key):
        section, constraint = key.metadata.get("section"), key.metadata.get("constraint")
        assert section and constraint and key.type in PARSERS
        valid, invalid = SETTING_VALUES[key.name]
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key.name} = {valid}\n")
        cfg = parse_config(path)
        assert getattr(cfg, key.name) != key.default
        write_resolved(cfg, tmp_path / "resolved.ini")
        assert parse_config(tmp_path / "resolved.ini") == cfg
        path.write_text(f"[{section}]\n{key.name} = {invalid}\n")
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert str(err.value) == f"[{section}] {key.name} must be {constraint}, got {invalid!r}"

    def test_readme_configuration_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Configuration\n", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert parse_config(path) == parse_config(None)
        write_resolved(parse_config(None), tmp_path / "resolved.ini")

        def keys(text):
            return [line.split("=", 1)[0].strip() for line in text.splitlines()
                    if line.strip() and not line.startswith("#")]

        assert keys(block) == keys((tmp_path / "resolved.ini").read_text())


# the spec fields RunConfig sets itself; every other field copies the setting of its name
EXPLICIT_SPEC_FIELDS = {
    MarketSpec: {"periodic_period_range", "periodic_bonds_range", "dense_bonds_range", "seed"},
    ModelConfig: {"kind", "vocab_size", "seed"},
    TrainSpec: {"seed"},
}


class TestSpecsFromConfig:
    def test_every_spec_field_is_a_setting_or_explicit(self):
        settings = {key.name for key in fields(RunConfig)}
        for spec, explicit in EXPLICIT_SPEC_FIELDS.items():
            assert {f.name for f in fields(spec)} - explicit <= settings, spec.__name__

    def test_non_default_settings_reach_their_specs(self, tmp_path):
        sections: dict[str, list[str]] = {}
        for key in fields(RunConfig):
            sections.setdefault(key.metadata["section"], []).append(
                f"{key.name} = {SETTING_VALUES[key.name][0]}")
        path = tmp_path / "c.ini"
        path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                                for name, lines in sections.items()))
        cfg = parse_config(path)
        specs = {MarketSpec: cfg.market_spec(), ModelConfig: cfg.model_config(11),
                 TrainSpec: cfg.train_spec()}
        defaults = {key.name: key.default for key in fields(RunConfig)}
        for cls, spec in specs.items():
            for name in {f.name for f in fields(cls)} - EXPLICIT_SPEC_FIELDS[cls]:
                assert getattr(cfg, name) != defaults[name], name
                assert getattr(spec, name) == getattr(cfg, name), name
        ranges = specs[MarketSpec]
        assert ranges.periodic_period_range == (cfg.periodic_min_period, cfg.periodic_max_period)
        assert ranges.periodic_bonds_range == (cfg.periodic_min_bonds, cfg.periodic_max_bonds)
        assert ranges.dense_bonds_range == (cfg.dense_min_bonds, cfg.dense_max_bonds)
        assert (specs[ModelConfig].kind, specs[ModelConfig].vocab_size) == (cfg.kind, 11)
        assert cfg.model_config(11, "TransRE").kind == "TransRE"
        for cls, stream in ((MarketSpec, "market"), (ModelConfig, "model"), (TrainSpec, "train")):
            assert specs[cls].seed == derive_seed(cfg.seed, stream), stream


class TestPipeline:
    def run(self, *argv):
        return main(list(argv))

    def test_full_pipeline(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train", "eval", "stats"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        for artifact in ("records.csv", "vocab.csv", "histories.bin", "clusters.csv",
                         "checkpoint_single.ckpt", "loss_single.csv", "report.csv",
                         "layer_stats.csv", "config.resolved.ini"):
            assert (out / artifact).exists(), artifact
        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("model,granularity,cluster")
        assert any(line.endswith("") and ",all," in line for line in report[1:])

    def test_eval_before_train_exits_2(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        assert self.run("cluster", "-c", str(cfg_path)) == 0
        code = self.run("eval", "-c", str(cfg_path))
        assert code == 2
        assert "checkpoint_single.ckpt" in capsys.readouterr().err

    def test_cluster_before_gen_exits_2(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        code = self.run("cluster", "-c", str(cfg_path))
        assert code == 2
        assert "histories.bin" in capsys.readouterr().err

    def test_gen_determinism_bytewise(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        first = (out / "records.csv").read_bytes()
        first_hist = (out / "histories.bin").read_bytes()
        assert self.run("gen", "-c", str(cfg_path)) == 0
        assert (out / "records.csv").read_bytes() == first
        assert (out / "histories.bin").read_bytes() == first_hist

    @pytest.mark.parametrize("edit", [
        ("\nbonds = 6\n", "\nbonds = 0\n"),
        ("periodic_dealers = 3\nsparse_dealers = 2\ndense_dealers = 1",
         "periodic_dealers = 0\nsparse_dealers = 0\ndense_dealers = 0"),
    ], ids=["no-bonds", "no-dealers"])
    def test_gen_refuses_an_empty_market(self, tmp_path, capsys, edit):
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(*edit))
        assert self.run("gen", "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: config error:")
        assert "no dealer with a record left after the filters" in err
        assert [p.name for p in out.iterdir()] == ["config.resolved.ini"]

    @pytest.mark.parametrize("edit, message", [
        (("periodic_min_period = 2", "periodic_min_period = 5"),
         "periodic_period_range (5, 4) needs 1 <= minimum <= maximum"),
        (("periodic_min_bonds = 1", "periodic_min_bonds = 4"),
         "periodic_bonds_range (4, 3) needs 0 <= minimum <= maximum"),
        (("dense_min_bonds = 3", "dense_min_bonds = 7"),
         "dense_bonds_range (7, 6) needs 0 <= minimum <= maximum"),
    ], ids=["period", "periodic-bonds", "dense-bonds"])
    def test_inverted_range_exits_1(self, tmp_path, capsys, edit, message):
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(*edit))
        assert self.run("gen", "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err == f"otcforecast: config error: {message}\n"
        assert not out.exists()

    def test_cluster_warns_about_empty_tiers(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(
            "periodic_dealers = 3\nsparse_dealers = 2\ndense_dealers = 1",
            "periodic_dealers = 1\nsparse_dealers = 0\ndense_dealers = 0"))
        assert self.run("gen", "-c", str(cfg_path)) == 0
        with pytest.warns(UserWarning) as caught:
            assert self.run("cluster", "-c", str(cfg_path)) == 0
        assert [str(w.message) for w in caught] == ["cluster: no dealer holds tier 1, 2, 3 of 0-3"]
        assert capsys.readouterr().out.endswith("(1 dealers, 1 populated tiers)\n")
        assert load_assignment(out / "clusters.csv")[1] == {"D0000": 0}

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[window]\nt_inn = 3\n")
        assert self.run("gen", "-c", str(path)) == 1
        assert "t_inn" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[run]\n# d\xe9j\xe0 vu\nseed = 3\n".encode("latin-1"))
        assert self.run("gen", "-c", str(path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: config error:")
        assert "latin1.ini" in err

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        cfg_path, _ = write_config(tmp_path, out=out)
        assert self.run("gen", "-c", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err

    def test_output_dir_with_a_nul_exits_1_before_writing(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, out="out\0x")
        assert self.run("gen", "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err == ("otcforecast: config error: [run] output_dir must be a path without "
                       "a NUL character, got 'out\\x00x'\n")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_histories_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        (out / "histories.bin").mkdir(parents=True)
        assert self.run("cluster", "-c", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "histories.bin") in err

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("frobnicate")
        assert exc.value.code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_3(self, tmp_path, capsys):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("learning_rate = 0.005", "learning_rate = 1e200")
                            .replace("epochs = 1", "epochs = 3"),
        )
        assert self.run("gen", "-c", str(cfg_path)) == 0
        assert self.run("train", "-c", str(cfg_path)) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_stats_requires_transformer_kind(self, tmp_path, capsys):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = FCSum")
        )
        assert self.run("gen", "-c", str(cfg_path)) == 0
        assert self.run("stats", "-c", str(cfg_path)) == 1
        assert "transformer" in capsys.readouterr().err

    def test_union_eval_mode(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train", "eval"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command

        def all_row(path):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            row = next(r for r in rows if r[2] == "all")
            return int(row[3]), int(row[4]), int(row[5])

        per_day = all_row(out / "report.csv")
        union_cfg = tmp_path / "union.ini"
        union_cfg.write_text(
            (tmp_path / "run.ini").read_text().replace(
                "[run]", "[run]\neval_mode = union"))
        assert self.run("eval", "-c", str(union_cfg)) == 0
        union = all_row(out / "report.csv")
        # collapsing the window can only merge positive day-cells
        assert union[0] + union[2] <= per_day[0] + per_day[2]

    def test_cluster_granularity_pipeline(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"),
        )
        for command in ("gen", "cluster", "train", "eval"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        checkpoints = sorted(p.name for p in out.glob("checkpoint_cluster*.ckpt"))
        assert checkpoints, "expected per-cluster checkpoints"

    def test_non_ascii_dealer_ids_under_an_ascii_locale(self, tmp_path):
        """CSV artifacts are UTF-8 and unit file names ASCII whatever the locale:
        the commands run as subprocesses under the C locale with UTF-8 mode off."""
        run = ascii_locale_runner()
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"),
        )
        assert self.run("gen", "-c", str(cfg_path)) == 0
        histories, _, _ = market.load_histories(out / "histories.bin")
        ids = rename_dealers(out / "histories.bin",
                             [h.dealer_id.replace("D", "Dé", 1) for h in histories])
        for command in ("cluster", "train", "eval"):
            proc = run(command, cfg_path)
            assert proc.returncode == 0, (command, proc.stderr)
        _, labels = load_assignment(out / "clusters.csv")
        assert sorted(labels) == sorted(ids)
        assert all(dealer.startswith("Dé") for dealer in labels)
        # at individual granularity the unit file names hold the ids percent-encoded
        cfg_path.write_text(cfg_path.read_text().replace("granularity = cluster",
                                                         "granularity = individual"))
        for command in ("train", "eval", "stats"):
            proc = run(command, cfg_path)
            assert proc.returncode == 0, (command, proc.stderr)
        assert (out / "checkpoint_dealer_D%C3%A90000.ckpt").exists()
        assert all(name.isascii() for name in os.listdir(out))

    def test_any_nonempty_dealer_id_at_individual_granularity(self, tmp_path):
        run = ascii_locale_runner()
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = individual"),
        )
        assert self.run("gen", "-c", str(cfg_path)) == 0
        # "x%25y" is what a raw "x%y" would become, so the two names must differ
        ids = rename_dealers(out / "histories.bin", ["a/b", "a\0b", "Dé1", "x%y", "x%25y"])
        for command in ("cluster", "train", "eval", "stats"):
            proc = run(command, cfg_path)
            assert proc.returncode == 0, (command, proc.stderr)
        assert all(name.isascii() for name in os.listdir(out))
        tags = {"a/b": "a%2Fb", "a\0b": "a%00b", "Dé1": "D%C3%A91", "x%y": "x%25y",
                "x%25y": "x%2525y", ids[-1]: ids[-1]}
        assert sorted(p.name for p in out.glob("checkpoint_*.ckpt")) == sorted(
            f"checkpoint_dealer_{tag}.ckpt" for tag in tags.values())
        units = {line.split(",")[0] for line in (out / "layer_stats.csv").read_text().splitlines()}
        assert units == {"unit"} | {f"dealer_{tag}" for tag in tags.values()}

    @pytest.mark.parametrize("dealer_id", ["Z/bad", "Z\0bad"], ids=["slash", "nul"])
    def test_dealer_id_with_slash_or_nul_trains(self, tmp_path, dealer_id):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = individual"),
        )
        assert self.run("gen", "-c", str(cfg_path)) == 0
        rename_dealers(out / "histories.bin", [dealer_id])
        for command in ("cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        encoded = dealer_id.replace("/", "%2F").replace("\0", "%00")
        assert (out / f"checkpoint_dealer_{encoded}.ckpt").is_file()
        assert (out / f"loss_dealer_{encoded}.csv").is_file()
        assert not [p for p in out.iterdir() if p.is_dir()]

    def cluster_with_last_dealer_id(self, tmp_path, capsys, ident):
        """Run ``cluster`` on histories whose last dealer id is the raw
        ``ident``; returns that dealer's index and the error output."""
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        path = out / "histories.bin"
        histories, _, _ = market.load_histories(path)
        # the writer refuses an empty or non-UTF-8 id, so the last dealer's
        # length-prefixed id is replaced by hand
        last = histories[-1].dealer_id.encode()
        record = struct.pack("<H", len(last)) + last
        blob = path.read_bytes()
        assert blob.count(record) == 1
        path.write_bytes(blob.replace(record, struct.pack("<H", len(ident)) + ident))
        capsys.readouterr()
        assert self.run("cluster", "-c", str(cfg_path)) == 2
        assert not (out / "clusters.csv").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        return len(histories) - 1, err

    def test_empty_dealer_id_exits_2_before_clustering(self, tmp_path, capsys):
        last, err = self.cluster_with_last_dealer_id(tmp_path, capsys, b"")
        assert f"dealer {last} has an empty id" in err

    def test_non_utf8_dealer_id_exits_2_before_clustering(self, tmp_path, capsys):
        last, err = self.cluster_with_last_dealer_id(tmp_path, capsys, b"D\xff")
        assert f"dealer {last} id is not UTF-8" in err

    @pytest.mark.parametrize("mode", ["per_day", "union"])
    def test_report_rows_count_every_decision_cell(self, tmp_path, mode):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster")
                            .replace("[run]", f"[run]\neval_mode = {mode}"),
        )
        for command in ("gen", "cluster", "train", "eval"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        cfg = parse_config(cfg_path)
        histories, days, vocab_size = market.load_histories(out / "histories.bin")
        samples = [s for h in histories
                   for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)]
        _, test = market.split_train_test(samples, days, cfg.train_fraction)
        _, labels = load_assignment(out / "clusters.csv")
        windows = Counter(str(labels[s.dealer_id]) for s in test)
        windows["all"] = len(test)
        cells = (cfg.t_out if mode == "per_day" else 1) * 2 * vocab_size
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["cluster"] for row in rows] == sorted(windows)  # the labels, then "all"
        for row in rows:
            counts = sum(int(row[name]) for name in ("tp", "fp", "fn", "tn"))
            assert counts == windows[row["cluster"]] * cells, row["cluster"]

    def test_stats_names_each_rows_unit(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"),
        )
        for command in ("gen", "cluster", "train", "stats"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        tags = sorted(p.name[len("checkpoint_"):-len(".ckpt")]
                      for p in out.glob("checkpoint_*.ckpt"))
        assert len(tags) > 1
        lines = (out / "layer_stats.csv").read_text().splitlines()
        assert lines[0] == "unit,model,layer,mean,variance"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[2]) for r in rows] == [(tag, layer) for tag in tags
                                                for layer in ("enc0", "dec0")]

    def test_compare_grid_shape(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        lines = (out / "compare_f1.csv").read_text().splitlines()
        assert lines[0] == "model,least,less,more,most,avg"
        assert len(lines) == 9  # header + 8 model kinds
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["FCSum", "FCConcat", "LSTM", "BiLSTM",
                         "TransFV", "TransCTE", "TransRE", "TransPPRZ"]

    @pytest.mark.parametrize("train_fraction", ["0.8"])
    def test_compare_matches_library_driver(self, tmp_path, train_fraction):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster")
                            .replace("train_fraction = 0.8", f"train_fraction = {train_fraction}"),
        )
        for command in ("gen", "cluster"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        with warnings.catch_warnings(record=True) as cli_warnings:
            warnings.simplefilter("always")
            assert self.run("compare", "-c", str(cfg_path)) == 0
        cfg = parse_config(cfg_path)
        histories, days, vocab_size = market.load_histories(out / "histories.bin")
        samples = [s for h in histories
                   for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)]
        train_s, test_s = market.split_train_test(samples, days, cfg.train_fraction)
        _, labels = load_assignment(out / "clusters.csv")
        with warnings.catch_warnings(record=True) as lib_warnings:
            warnings.simplefilter("always")
            units = training_units("cluster", train_s, test_s, labels)
            rows = []
            for kind in MODEL_KINDS:
                config = cfg.model_config(vocab_size, kind)
                trained = [(tag, model, unit_test) for tag, model, _, unit_test
                           in train_units(config, units, cfg.train_spec())]
                rows += score_units(kind, "cluster", trained, cfg.threshold, cfg.eval_mode,
                                    labels)
        write_reports(tmp_path / "library.csv", rows)
        assert (tmp_path / "library.csv").read_bytes() == (out / "compare_report.csv").read_bytes()
        assert [str(w.message) for w in cli_warnings] == [str(w.message) for w in lib_warnings]

    def test_compare_forms_units_once(self, tmp_path, monkeypatch):
        cfg_path, _ = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"))
        for command in ("gen", "cluster"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        calls = []
        forming = harness.training_units

        def counted(*args):
            calls.append(args[0])
            return forming(*args)

        for module in (cli, harness):
            monkeypatch.setattr(module, "training_units", counted)
        assert self.run("compare", "-c", str(cfg_path)) == 0
        assert calls == ["cluster"]

    def test_compare_reads_histories_once(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        loads = []
        load_histories = market.load_histories
        monkeypatch.setattr(market, "load_histories",
                            lambda path: loads.append(path) or load_histories(path))
        assert self.run("compare", "-c", str(cfg_path)) == 0
        assert loads == [out / "histories.bin"]

    def test_eval_scores_each_unit_before_loading_the_next(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = individual"))
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        events, tags = [], {}
        load, evaluate = cli.load_checkpoint, harness.evaluate

        def loaded(path, config):
            model = load(path, config)
            tags[id(model)] = path.name
            events.append(("load", path.name))
            return model

        def scored(model, *args, **kwargs):
            events.append(("score", tags[id(model)]))
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(cli, "load_checkpoint", loaded)
        monkeypatch.setattr(harness, "evaluate", scored)
        assert self.run("eval", "-c", str(cfg_path)) == 0
        order = [tag for step, tag in events if step == "load"]
        assert len(order) > 1
        # a unit may be scored once per cluster label among its windows
        merged = [e for i, e in enumerate(events) if i == 0 or e != events[i - 1]]
        assert merged == [(step, tag) for tag in order for step in ("load", "score")]

    def trained_without_the_last_checkpoint(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = individual"))
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        last = sorted(out.glob("checkpoint_*.ckpt"))[-1]
        last.unlink()
        return cfg_path, out, last

    def test_eval_with_a_missing_unit_checkpoint_writes_no_report(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfg_path, out, last = self.trained_without_the_last_checkpoint(tmp_path)
        scored = []
        evaluate = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *args, **kwargs: scored.append(1) or evaluate(*args, **kwargs))
        capsys.readouterr()
        assert self.run("eval", "-c", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and last.name in err
        assert not (out / "report.csv").exists()
        # every checkpoint is checked before the first unit is scored
        assert scored == []

    def test_eval_with_a_non_finite_last_checkpoint_scores_no_unit(self, tmp_path, capsys,
                                                                   monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = individual"))
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        last = sorted(out.glob("checkpoint_*.ckpt"))[-1]
        header, payload = last.read_bytes().split(b"\n", 1)
        last.write_bytes(header + b"\n" + payload[:-8] + np.float64(np.nan).tobytes())
        scored = []
        evaluate = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *args, **kwargs: scored.append(1) or evaluate(*args, **kwargs))
        capsys.readouterr()
        assert self.run("eval", "-c", str(cfg_path)) == 2
        assert f"{last}: non-finite parameter value" in capsys.readouterr().err
        assert scored == [] and not (out / "report.csv").exists()

    def test_stats_with_a_missing_unit_checkpoint_probes_no_unit(self, tmp_path, capsys,
                                                                 monkeypatch):
        cfg_path, out, last = self.trained_without_the_last_checkpoint(tmp_path)
        probed = []
        monkeypatch.setattr(cli, "layer_signal_stats", lambda *args, **kwargs: probed.append(1))
        capsys.readouterr()
        assert self.run("stats", "-c", str(cfg_path)) == 2
        assert last.name in capsys.readouterr().err
        assert probed == [] and not (out / "layer_stats.csv").exists()

    @pytest.mark.parametrize("command, train_fraction, split", [
        pytest.param("eval", "0.9", "test", id="eval"),
        pytest.param("compare", "0.9", "test", id="compare"),
        *(pytest.param(command, "0.1", "training", id=f"{command}-no-training-window")
          for command in ("train", "eval", "compare", "stats")),
    ])
    def test_empty_test_split_exits_1_before_training(self, tmp_path, capsys, command,
                                                      train_fraction, split):
        # days 30, t_in 3, t_out 2: a 5-day window fits neither after the
        # boundary day 27 of train_fraction 0.9 (no test window) nor before
        # the boundary day 3 of train_fraction 0.1 (no training window)
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(
            "train_fraction = 0.8", f"train_fraction = {train_fraction}"))
        for step in ("gen", "cluster"):
            assert self.run(step, "-c", str(cfg_path)) == 0, step
        artifacts = sorted(out.iterdir())
        capsys.readouterr()
        assert self.run(command, "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: config error:")
        for key in (f"no {split} window", "days 30", "t_in 3", "t_out 2",
                    f"train_fraction {train_fraction}"):
            assert key in err, key
        assert sorted(out.iterdir()) == artifacts

    @pytest.mark.parametrize("cut", [0, 7, 0.5, -1])
    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys, cut):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        path = out / "checkpoint_single.ckpt"
        truncate(path, cut)
        capsys.readouterr()
        assert self.run("eval", "-c", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err and path.name in err

    @pytest.mark.parametrize("cut", [0, 15, 19, 0.5, -1])
    def test_truncated_histories_exit_2(self, tmp_path, capsys, cut):
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        path = out / "histories.bin"
        truncate(path, cut)
        capsys.readouterr()
        for command in ("cluster", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err and path.name in err

    def test_histories_without_dealers_exit_2(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        path = out / "histories.bin"
        # keep the header and write a dealer count of 0
        path.write_bytes(path.read_bytes()[:16] + bytes(4))
        capsys.readouterr()
        for command in ("cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert path.name in err and "0 dealers" in err

    def test_compare_checks_every_model_config_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        # heads 4 does not divide d_model 6, which only the transformer kinds
        # need; LSTM itself is valid, so the config parses
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = LSTM")
                                      .replace("d_model = 8", "d_model = 6")
                                      .replace("heads = 2", "heads = 4"))
        for command in ("gen", "cluster"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args: trained.append(args))
        capsys.readouterr()
        assert self.run("compare", "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "divisible by heads=4" in err
        assert trained == []


class TestClustersFile:
    def pipeline(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        return cfg_path, out / "clusters.csv"

    def test_every_truncation_is_an_artifact_error(self, tmp_path):
        cfg_path, path = self.pipeline(tmp_path)
        cfg = parse_config(cfg_path)
        blob = path.read_bytes()
        _, full = load_assignment(path)
        # csv's line terminator; a fingerprint row, then six dealer rows
        assert blob.endswith(b"\r\n") and blob.count(b"\r\n") == 7
        # every shorter file but those cut inside the final "\r\n", which
        # keep all seven rows whole
        for keep in range(len(blob) - 2):
            path.write_bytes(blob[:keep])
            with pytest.raises(ArtifactError, match="clusters.csv"):
                cli._prepare(cfg, path.parent, scoring=True)
        for keep in (len(blob) - 2, len(blob) - 1):
            path.write_bytes(blob[:keep])
            assert cli._prepare(cfg, path.parent, scoring=True)[2] == full

    @pytest.mark.parametrize("cut", [0, 3, 8, 13, 30, 80, 88, 0.5])
    def test_truncated_file_exits_2(self, tmp_path, capsys, cut):
        cfg_path, path = self.pipeline(tmp_path)
        truncate(path, cut)
        capsys.readouterr()
        assert main(["compare", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err and path.name in err
        assert not (path.parent / "compare_f1.csv").exists()

    @pytest.mark.parametrize("edit", ["label 7", "repeat", "extra column"])
    def test_bad_row_exits_2(self, tmp_path, capsys, edit):
        cfg_path, path = self.pipeline(tmp_path)
        source, first, *rest = path.read_text().splitlines(keepends=True)
        dealer = first.split(",")[0]
        bad = {"label 7": f"{dealer},7\n", "repeat": first + first,
               "extra column": f"{dealer},0,1\n"}[edit]
        path.write_text(source + bad + "".join(rest))
        capsys.readouterr()
        assert main(["compare", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err and dealer in err


    def test_file_of_other_histories_exits_2(self, tmp_path, capsys):
        # dealer ids D0000... repeat across markets, so the old labels
        # cover every dealer of the new, smaller market
        eight = TINY_CONFIG.replace("periodic_dealers = 3", "periodic_dealers = 5") \
                           .replace("top_dealers = 6", "top_dealers = 8")
        cfg_path, out = write_config(tmp_path, text=eight)
        for command in ("gen", "cluster"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        cfg_path, _ = write_config(tmp_path, text=TINY_CONFIG.replace("seed = 3", "seed = 4"))
        assert main(["gen", "-c", str(cfg_path)]) == 0
        histories, _, _ = market.load_histories(out / "histories.bin")
        listed = {line.split(",")[0] for line in (out / "clusters.csv").read_text().splitlines()}
        assert len(histories) == 6 and {f"D000{i}" for i in range(8)} <= listed
        assert {h.dealer_id for h in histories} <= listed
        capsys.readouterr()
        assert main(["compare", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "clusters.csv" in err and "histories.bin" in err
        assert not (out / "compare_f1.csv").exists()
        assert main(["cluster", "-c", str(cfg_path)]) == 0
        assert main(["compare", "-c", str(cfg_path)]) == 0


def load_trained(cfg_path, out):
    """The checkpoint `train` wrote at single granularity, under its run config."""
    _, _, vocab_size = market.load_histories(out / "histories.bin")
    return load_checkpoint(out / "checkpoint_single.ckpt",
                           parse_config(cfg_path).model_config(vocab_size))


class TestCheckpointConfig:
    def test_checkpoint_under_other_heads_exits_2(self, tmp_path, capsys):
        # parameter shapes do not depend on heads, so only the manifest's
        # config tells the two apart
        trained = TINY_CONFIG.replace("kind = TransPPRZ", "kind = TransRE")
        cfg_path, out = write_config(tmp_path, text=trained.replace("heads = 2", "heads = 4"))
        for command in ("gen", "cluster", "train", "eval"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        cfg_path, _ = write_config(tmp_path, text=trained)
        capsys.readouterr()
        for command in ("eval", "stats"):
            assert main([command, "-c", str(cfg_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert "checkpoint_single.ckpt" in err and "heads = 4" in err and "2" in err

    def test_manifest_config_cannot_drive_memory_use(self, tmp_path, capsys):
        # a short manifest asking for a large vocabulary, with no payload
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = TransFV"))
        for command in ("gen", "cluster"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        _, _, vocab_size = market.load_histories(out / "histories.bin")
        config = parse_config(cfg_path).model_config(vocab_size)
        path = out / "checkpoint_single.ckpt"
        manifest = {"magic": "otcforecast-checkpoint", "version": 4,
                    "config": {**vars(config), "vocab_size": 20000}}
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n")
        assert path.stat().st_size < 256
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactError, match="trained with vocab_size = 20000"):
                load_checkpoint(path, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        capsys.readouterr()
        for command in ("eval", "stats"):
            assert main([command, "-c", str(cfg_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert f"trained with vocab_size = 20000, the config gives {vocab_size}" in err

    def trained_with_payload(self, tmp_path, kind, edit):
        """Train ``kind``, then rewrite its checkpoint's payload as ``edit``
        leaves the parameter vector; returns the config and checkpoint paths."""
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", f"kind = {kind}"))
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        values = np.frombuffer(payload, dtype="<f8").copy()
        edit(values)
        path.write_bytes(header + b"\n" + values.tobytes())
        return cfg_path, path

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda values: values.fill(np.nan), id="nan-everywhere"),
        pytest.param(lambda values: values.__setitem__(7, np.inf), id="one-inf"),
    ])
    def test_non_finite_checkpoint_exits_2(self, tmp_path, capsys, edit):
        cfg_path, path = self.trained_with_payload(tmp_path, "TransRE", edit)
        capsys.readouterr()
        for command, written in (("eval", "report.csv"), ("stats", "layer_stats.csv")):
            assert main([command, "-c", str(cfg_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert f"{path}: non-finite parameter value" in err
            assert not (path.parent / written).exists()

    def test_overflowing_checkpoint_exits_3(self, tmp_path, capsys):
        # finite parameters whose forecasts and layer statistics overflow
        cfg_path, path = self.trained_with_payload(
            tmp_path, "TransFV", lambda values: values.fill(1e300))
        capsys.readouterr()
        for command, written, what in (("eval", "report.csv", "forecast"),
                                       ("stats", "layer_stats.csv", "layer statistic")):
            assert main([command, "-c", str(cfg_path)]) == 3, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("otcforecast: numeric failure:")
            assert f"non-finite {what}" in err
            assert not (path.parent / written).exists()

    def rewrite_as_old_format(self, tmp_path, header_of):
        """Train, then replace the checkpoint's manifest line with
        ``header_of(manifest, entries)``, where ``entries`` is the per-tensor
        name/shape/offset table of the version 1 format; the payload bytes
        of both formats are the same."""
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        entries, offset = [], 0
        params = load_trained(cfg_path, out).params
        for name, tensor in zip(params.names(), params.tensors()):
            entries.append({"name": name, "shape": list(tensor.shape), "offset": offset})
            offset += 8 * tensor.values.size
        old = header_of(json.loads(header), entries)
        path.write_bytes(json.dumps(old, separators=(",", ":")).encode() + b"\n" + payload)
        return cfg_path

    def test_old_manifest_without_magic_exits_2(self, tmp_path, capsys):
        cfg_path = self.rewrite_as_old_format(tmp_path, lambda _, entries: {"entries": entries})
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "malformed manifest" in err

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        cfg_path = self.rewrite_as_old_format(
            tmp_path, lambda manifest, entries: {**manifest, "version": 1, "entries": entries})
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "malformed manifest (version 1, expected 4)" in err

    @pytest.mark.parametrize("kind, commands", [("LSTM", ("eval",)),
                                                ("TransPPRZ", ("eval", "stats"))])
    def test_version_2_checkpoint_exits_2(self, tmp_path, capsys, kind, commands):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", f"kind = {kind}"))
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        # version 2 stored each LSTM direction gate by gate: wx_i, wh_i, b_i, wx_f, ...
        model = load_trained(cfg_path, out)
        params, hidden = model.params, model.config.hidden
        parts = []
        for name in params.names():
            if name.endswith(".wx"):
                parts += [params[name[:-2] + weight].values[..., k * hidden:(k + 1) * hidden]
                          for k in range(4) for weight in ("wx", "wh", "b")]
            elif not name.startswith("lstm."):
                parts.append(params[name].values)
        old = b"".join(np.ascontiguousarray(part).astype("<f8").tobytes() for part in parts)
        # same length, so for an LSTM only the version tells a scrambled load apart
        assert len(old) == len(payload) and (old != payload) == (kind == "LSTM")
        manifest = {**json.loads(header), "version": 2}
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + old)
        capsys.readouterr()
        for command in commands:
            assert main([command, "-c", str(cfg_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert "malformed manifest (version 2, expected 4)" in err

    def test_version_3_checkpoint_exits_2(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header = path.read_bytes().split(b"\n", 1)[0]
        # version 3 held a key bias after each attention block's wk
        params = load_trained(cfg_path, out).params
        parts = []
        for name in params.names():
            parts.append(params[name].values)
            if name.endswith(".wk"):
                parts.append(np.zeros(params[name].shape[1]))
        old = b"".join(part.astype("<f8").tobytes() for part in parts)
        manifest = {**json.loads(header), "version": 3}
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + old)
        capsys.readouterr()
        for command in ("eval", "stats"):
            assert main([command, "-c", str(cfg_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "unreadable artifact" in err
            assert "malformed manifest (version 3, expected 4)" in err


def truncate(path, cut):
    """Keep the first ``cut`` bytes of a file: a byte count, a fraction of
    its length, or -1 for all but the last byte."""
    blob = path.read_bytes()
    keep = len(blob) - 1 if cut == -1 else int(cut * len(blob)) if isinstance(cut, float) else cut
    path.write_bytes(blob[:keep])
