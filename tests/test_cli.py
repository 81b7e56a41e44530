"""Config parsing and end-to-end command-line pipeline tests."""

import builtins
import codecs
import csv
import fnmatch
import hashlib
import importlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tomllib
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import otcforecast
from otcforecast import cli, harness, market
from otcforecast.cli import main
from otcforecast.config import PARSERS, RunConfig, parse_config, write_resolved
from otcforecast.errors import ArtifactError, ConfigurationError, ContractError
from otcforecast.harness import (
    EVAL_MODES,
    GRANULARITIES,
    TrainSpec,
    micro_prf,
    score_units,
    tier_rows,
    train,
    training_units,
    write_days,
    write_dealers,
    write_reports,
)
from otcforecast.market import MarketSpec
from otcforecast.models import (CHECKPOINT_VERSION, MODEL_KINDS, ModelConfig, build_model,
                                check_checkpoint, save_checkpoint)
from otcforecast.seeding import derive_seed

from helpers import TINY_CONFIG, interrupted_writes


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
    histories, days, vocab_size, _ = market.load_histories(path)
    assert len(histories) >= len(ids)
    for h, ident in zip(histories, ids):
        h.dealer_id = ident
    market.save_histories(path, histories, days, vocab_size)
    return [h.dealer_id for h in histories]


def tiers(cfg_path, out):
    """dealer -> tier label as the commands derive them from ``out``'s histories."""
    histories, days, _, _ = market.load_histories(out / "histories.bin")
    return cli._tiers(parse_config(cfg_path), histories, days).labels


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
    "periodic_min_bonds": ("1", "-1"),
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
    "seed": ("-7", "1.5"),
    "granularity": ("cluster", "global"),
    "output_dir": ("runs/other", "out\0x"),
    "eval_mode": ("union", "max"),
}

# the least value MarketSpec takes for each [market] count key
MARKET_COUNT_FLOORS = {
    "days": 1, "bonds": 0, "periodic_dealers": 0, "sparse_dealers": 0, "dense_dealers": 0,
    "periodic_min_period": 1, "periodic_max_period": 1, "periodic_min_bonds": 0,
    "periodic_max_bonds": 0, "dense_min_bonds": 0, "dense_max_bonds": 0,
}


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg.top_dealers == 200
        assert cfg.t_in == 5
        assert cfg.train_fraction == 0.9
        assert cfg.threshold == 0.5
        assert cfg.kind == "TransPPRZ"

    @pytest.mark.parametrize("text", ["", "# a comment\n; another\n\n"],
                             ids=["empty", "comments-only"])
    def test_a_file_without_a_section_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                        text):
        path = tmp_path / "c.ini"
        path.write_text(text)
        message = f"config file {path} has no section"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(path)
        monkeypatch.chdir(tmp_path)  # where the default output_dir would go
        assert main(["gen", "-c", str(path)]) == 1
        assert capsys.readouterr().err == f"otcforecast: config error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["c.ini"]
        path.write_text(text + "[run]\n")  # one section, even an empty one, means the defaults
        assert parse_config(path) == parse_config(None)

    def test_colon_delimiter_and_nonstandard_t_in(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[window]\nt_in: 7\n")
        assert parse_config(path).t_in == 7

    # patience, the early stop that training no longer has, is refused like any unknown key,
    # also as the empty line that every earlier config.resolved.ini echoed
    @pytest.mark.parametrize("text, key", [("[window]\nt_inn = 5\n", "t_inn"),
                                           ("[train]\npatience = 3\n", "patience"),
                                           ("[train]\npatience =\n", "patience")],
                             ids=["t_inn", "patience", "patience_empty"])
    def test_unknown_key_named_in_error(self, tmp_path, text, key):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
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

    @pytest.mark.parametrize("raw", ["9.223372006484772e18", "1e19"])
    def test_rate_past_the_poisson_limit_exits_1_before_gen(self, tmp_path, capsys, raw):
        # numpy's Generator.poisson refuses a mean above 2**63 - 10 * sqrt(2**63)
        cfg_path, out = write_config(tmp_path, text=TINY_CONFIG.replace(
            "dense_rate = 2.0", f"dense_rate = {raw}"))
        assert main(["gen", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"otcforecast: config error: dense_rate {float(raw)!r} must be nonnegative "
                       "and at most numpy's Poisson limit 9.223372006484771e+18\n")
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

    @pytest.mark.parametrize("key, floor", MARKET_COUNT_FLOORS.items())
    def test_market_counts_take_the_spec_floor(self, tmp_path, key, floor):
        assert MARKET_COUNT_FLOORS.keys() == {k.name for k in fields(RunConfig)
                                              if k.metadata["section"] == "market"
                                              and k.type == "int"}
        path = tmp_path / "c.ini"
        for value in (floor, floor - 1):
            values = {key: value}
            for end, other in (("_min_", "_max_"), ("_max_", "_min_")):
                if end in key:  # the range's other end at the floor: only this key decides
                    values[key.replace(end, other)] = floor
            try:
                RunConfig(**values).market_spec()
            except ContractError:
                spec_accepts = False
            else:
                spec_accepts = True
            assert spec_accepts == (value == floor)
            path.write_text("[market]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
            if spec_accepts:
                assert getattr(parse_config(path), key) == value
            else:
                with pytest.raises(ConfigurationError) as err:
                    parse_config(path)
                assert str(err.value) == (f"[market] {key} must be an integer >= {floor}, "
                                          f"got '{value}'")

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

    @pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
    def test_a_write_cut_midway_keeps_the_earlier_echo(self, tmp_path, monkeypatch, exc):
        path = tmp_path / "resolved.ini"
        write_resolved(parse_config(None), path)
        cfg_path, _ = write_config(tmp_path)
        with interrupted_writes(monkeypatch, path, exc), pytest.raises(exc):
            write_resolved(parse_config(cfg_path), path)


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
        for command in ("gen", "cluster", "train", "eval"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        for artifact in ("records.csv", "vocab.csv", "histories.bin", "clusters.csv",
                         "checkpoint_single.ckpt", "train_log_single.jsonl", "report.csv",
                         "config.resolved.ini"):
            assert (out / artifact).exists(), artifact
        with open(out / "report.csv", newline="") as fh:
            pooled = [row for row in csv.DictReader(fh) if row["cluster"] == "all"]
        assert len(pooled) == 1 and pooled[0]["granularity"] == "single"
        assert 0.0 <= float(pooled[0]["f1"]) <= 1.0

    def test_mini_config_parses_and_generates(self, tmp_path):
        """configs/mini.ini, whose compare is the README's one-minute reproduction,
        parses and generates its market; its gen runs into ``tmp_path``."""
        path = Path(__file__).resolve().parents[1] / "configs" / "mini.ini"
        cfg = parse_config(path)
        assert (cfg.output_dir, cfg.granularity, cfg.days) == ("runs/mini", "cluster", 249)
        cfg_path, out = tmp_path / "mini.ini", tmp_path / "mini"
        cfg_path.write_text(path.read_text(encoding="utf-8").replace(
            "output_dir = runs/mini", f"output_dir = {out}"), encoding="utf-8")
        assert parse_config(cfg_path) == replace(cfg, output_dir=str(out))
        assert self.run("gen", "-c", str(cfg_path)) == 0
        histories, days, vocab_size, _ = market.load_histories(out / "histories.bin")
        assert days == 249 and vocab_size <= cfg.bonds
        assert len(histories) == cfg.periodic_dealers + cfg.sparse_dealers + cfg.dense_dealers

    def test_readme_cli_table_names_what_each_command_writes(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = {command: re.findall(r"`([^`]+)`", writes) for command, writes in
                 re.findall(r"^\| `(\w+)`\s*\|[^|]*\|([^|]*)\|$", readme, re.MULTILINE)}
        assert list(table) == list(cli._DISPATCH)
        cfg_path, out = write_config(tmp_path)
        for command, files in table.items():
            for path in out.glob("*"):  # so that any file the command writes is newer
                os.utime(path, ns=(0, 0))
            assert self.run(command, "-c", str(cfg_path)) == 0, command
            written = {p.name for p in out.glob("*") if p.stat().st_mtime_ns != 0}
            globs = [name.replace("<unit>", "*") for name in files]
            listed = {name for glob in globs for name in fnmatch.filter(written, glob)}
            assert written == {"config.resolved.ini", *listed}, command
            assert all(fnmatch.filter(written, glob) for glob in globs), command

    @pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
    def test_compare_cut_in_write_dealers_keeps_the_earlier_table(self, tmp_path, monkeypatch,
                                                                   capsys, exc):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        capsys.readouterr()
        with interrupted_writes(monkeypatch, out / "compare_dealers.csv", exc):
            if exc is KeyboardInterrupt:  # the interpreter exits 130 on it
                with pytest.raises(KeyboardInterrupt):
                    self.run("compare", "-c", str(cfg_path))
            else:
                assert self.run("compare", "-c", str(cfg_path)) == 2
                assert "unusable path: interrupted mid-write" in capsys.readouterr().err

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

    def test_dealers_file_holds_every_generated_dealers_plan(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        with open(out / "dealers.csv", newline="", encoding="utf-8") as fh:
            first, header, *rows = csv.reader(fh)
        digest = hashlib.sha256((out / "histories.bin").read_bytes()).hexdigest()
        assert first == ["histories_sha256", digest]
        assert header == ["dealer_id", "archetype", "period", "buys", "sells", "universe_width"]
        spec = parse_config(cfg_path).market_spec()
        assert [tuple(row[:2]) for row in rows] == market._dealer_ids(spec)
        assert len(rows) == 6 and {row[1] for row in rows} == {"periodic", "sparse", "dense"}
        traded = {}
        with open(out / "records.csv", newline="", encoding="utf-8") as fh:
            for _, dealer, bond, side, *_ in csv.reader(fh):
                traded.setdefault(dealer, set()).add((bond, side))
        for dealer, archetype, period, buys, sells, width in rows:
            assert bool(period) == bool(buys or sells) == (archetype == "periodic")
            assert bool(width) == (archetype == "dense")
            if archetype == "periodic":  # every basket bond trades on day 0
                assert traded[dealer] == ({(b, "B") for b in buys.split()}
                                          | {(b, "S") for b in sells.split()})
            if archetype == "dense":
                assert len({bond for bond, _ in traded[dealer]}) <= int(width)

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
        assert list(out.iterdir()) == []

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
        assert (out / "clusters.csv").read_text().splitlines()[1:] == ["D0000,0"]

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

    # an empty output_dir would be Path(""), the working directory
    @pytest.mark.parametrize("out", ["out\0x", ""], ids=["nul", "empty"])
    def test_output_dir_with_a_nul_exits_1_before_writing(self, tmp_path, monkeypatch, capsys,
                                                           out):
        cfg_path, _ = write_config(tmp_path, out=out)
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "cluster", "train", "eval", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 1, command
            assert capsys.readouterr().err == (
                "otcforecast: config error: [run] output_dir must be a non-empty path without "
                f"a NUL character, got {out!r}\n")
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

    def test_console_script_is_the_cli_main(self):
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["otcforecast"]
        module, attr = target.split(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry is cli.main
        with pytest.raises(SystemExit) as exc:
            entry(["frobnicate"])
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

    def test_fc_train_probes_no_layer_stats(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = FCSum")
        )
        probed = []
        monkeypatch.setattr(cli, "layer_signal_stats", lambda *args, **kwargs: probed.append(1))
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        assert (out / "checkpoint_single.ckpt").exists()
        assert probed == []
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert [list(json.loads(line)) for line in lines] == [["model", "epoch", "loss"]] * 2

    @pytest.mark.parametrize("trained_before", [False, True], ids=["fresh", "retrained"])
    def test_train_with_a_non_finite_layer_statistic_exits_3(self, tmp_path, capsys,
                                                              monkeypatch, trained_before):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = TransFV"))
        for command in ("gen", "train") if trained_before else ("gen",):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        layer_signal_stats = cli.layer_signal_stats
        calls = []

        def overflowing(model, samples):
            calls.append(model)
            if len(calls) > 1:  # after epoch 1: finite parameters whose statistics overflow
                model.params.flat[:] = 1e300
            return layer_signal_stats(model, samples)

        monkeypatch.setattr(cli, "layer_signal_stats", overflowing)
        capsys.readouterr()
        assert self.run("train", "-c", str(cfg_path)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: numeric failure:")
        assert "non-finite layer statistic" in err
        # the statistics are taken while training: the unit has no checkpoint,
        # not even one an earlier train saved, and its log holds the lines
        # before the failure, the model as built
        assert len(calls) == 2 and not list(out.glob("checkpoint_*"))
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0]
        assert self.run("eval", "-c", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing artifact" in err
        assert "checkpoint_single.ckpt" in err

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
        histories, _, _, _ = market.load_histories(out / "histories.bin")
        ids = rename_dealers(out / "histories.bin",
                             [h.dealer_id.replace("D", "Dé", 1) for h in histories])
        for command in ("cluster", "train", "eval"):
            proc = run(command, cfg_path)
            assert proc.returncode == 0, (command, proc.stderr)
        rows = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == sorted(ids)
        assert all(row.startswith("Dé") for row in rows)
        # at individual granularity the unit file names hold the ids percent-encoded
        cfg_path.write_text(cfg_path.read_text().replace("granularity = cluster",
                                                         "granularity = individual"))
        for command in ("train", "eval"):
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
        for command in ("cluster", "train", "eval"):
            proc = run(command, cfg_path)
            assert proc.returncode == 0, (command, proc.stderr)
        assert all(name.isascii() for name in os.listdir(out))
        tags = {"a/b": "a%2Fb", "a\0b": "a%00b", "Dé1": "D%C3%A91", "x%y": "x%25y",
                "x%25y": "x%2525y", ids[-1]: ids[-1]}
        assert sorted(p.name for p in out.glob("checkpoint_*.ckpt")) == sorted(
            f"checkpoint_dealer_{tag}.ckpt" for tag in tags.values())
        assert sorted(p.name for p in out.glob("train_log_*.jsonl")) == sorted(
            f"train_log_dealer_{tag}.jsonl" for tag in tags.values())

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
        assert (out / f"train_log_dealer_{encoded}.jsonl").is_file()
        assert not [p for p in out.iterdir() if p.is_dir()]

    def cluster_with_last_dealer_id(self, tmp_path, capsys, ident):
        """Run ``cluster`` on histories whose last dealer id is the raw
        ``ident``; returns that dealer's index and the error output."""
        cfg_path, out = write_config(tmp_path)
        assert self.run("gen", "-c", str(cfg_path)) == 0
        path = out / "histories.bin"
        histories, _, _, _ = market.load_histories(path)
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
        histories, days, vocab_size, _ = market.load_histories(out / "histories.bin")
        samples = [s for h in histories
                   for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)]
        _, test = market.split_train_test(samples, days, cfg.train_fraction)
        labels = tiers(cfg_path, out)
        windows = Counter(str(labels[s.dealer_id]) for s in test)
        windows["all"] = len(test)
        cells = (cfg.t_out if mode == "per_day" else 1) * 2 * vocab_size
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["cluster"] for row in rows] == sorted(windows)  # the labels, then "all"
        for row in rows:
            counts = sum(int(row[name]) for name in ("tp", "fp", "fn", "tn"))
            assert counts == windows[row["cluster"]] * cells, row["cluster"]

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("kind", ["TransPPRZ", "TransRE"])
    def test_train_logs_each_units_epochs(self, tmp_path, kind, epochs):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", "granularity = cluster")
                            .replace("kind = TransPPRZ", f"kind = {kind}")
                            .replace("epochs = 1", f"epochs = {epochs}"),
        )
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        cfg = parse_config(cfg_path)
        vocab_size, units, _, _ = cli._prepare(cfg, out)
        config = cfg.model_config(vocab_size)
        assert len(units) > 1
        assert sorted(p.name for p in out.glob("train_log_*.jsonl")) == sorted(
            f"train_log_{tag}.jsonl" for tag, _, _ in units)

        def hexed(table):
            return {name: [float(v).hex() for v in values] for name, values in table.items()}

        for tag, unit_train, _ in units:
            text = (out / f"train_log_{tag}.jsonl").read_text()
            lines = [json.loads(line) for line in text.splitlines()]
            _, losses = harness.train(build_model(config), unit_train, cfg.train_spec())
            assert [line["epoch"] for line in lines] == list(range(epochs + 1))
            assert [line["loss"] for line in lines] == [None, *losses]
            assert all(line["model"] == kind for line in lines)
            # the last line holds the saved checkpoint's statistics, on its first
            # PROBE_WINDOWS training windows, and its gates; line 0 the zero-init gates
            model = load_trained(cfg_path, out, tag)
            stats = harness.layer_signal_stats(model, unit_train[:cli.PROBE_WINDOWS])
            assert hexed(lines[-1]["layers"]) == hexed(stats)
            gates = {name.removesuffix(".gate"): model.params[name].values
                     for name in model.params.names() if name.endswith(".gate")}
            assert list(gates) == ["encoder.l0", "decoder.l0"]
            assert hexed(lines[0]["gates"]) == {layer: [(0.0).hex()] * 3 for layer in gates}
            assert hexed(lines[-1]["gates"]) == hexed(
                {layer: [g.min(), g.mean(), g.max()] for layer, g in gates.items()})

    def test_readme_train_log_keys_are_the_written_keys(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        keys = re.search(r"^\* `train_log_<unit>\.jsonl`: `([^`]*)`", readme, re.MULTILINE).group(1)
        cfg_path, out = write_config(tmp_path)  # a TransPPRZ unit, trained one epoch
        for command in ("gen", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(list(json.loads(line)) == keys.split(",") for line in lines)

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

    @pytest.mark.parametrize("granularity, mode", [
        ("single", "per_day"), ("cluster", "per_day"), ("individual", "per_day"),
        ("single", "union")])
    def test_compare_days_add_up_to_each_kinds_all_row(self, tmp_path, granularity, mode):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", f"granularity = {granularity}")
                            .replace("[run]", f"[run]\neval_mode = {mode}"),
        )
        for command in ("gen", "cluster", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        with open(out / "compare_report.csv", newline="") as fh:
            pooled = {row["model"]: row for row in csv.DictReader(fh) if row["cluster"] == "all"}
        with open(out / "compare_days.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["model", "day", "tp", "fp", "fn", "tn", "precision", "recall", "f1"]
        t_out = parse_config(cfg_path).t_out
        days = ["union"] if mode == "union" else [str(day) for day in range(1, t_out + 1)]
        assert [row[:2] for row in rows] == [[kind, day] for kind in MODEL_KINDS for day in days]
        for kind in MODEL_KINDS:
            mine = [list(map(int, row[2:6])) for row in rows if row[0] == kind]
            assert np.sum(mine, axis=0).tolist() == [
                int(pooled[kind][name]) for name in ("tp", "fp", "fn", "tn")], kind
            assert len({sum(counts) for counts in mine}) == 1  # every day: scored windows x 2V
        for row in rows:
            assert row[6:] == [repr(score) for score in micro_prf(*map(int, row[2:5]))]

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_tier_all_and_day_rows_are_sums_of_the_dealer_table(self, tmp_path, monkeypatch,
                                                                granularity, mode):
        cfg_path, out = write_config(
            tmp_path,
            text=TINY_CONFIG.replace("granularity = single", f"granularity = {granularity}")
                            .replace("[run]", f"[run]\neval_mode = {mode}"),
        )
        tables, scoring = [], cli.score_units
        monkeypatch.setattr(cli, "score_units", lambda *args: tables.append(scoring(*args))
                            or tables[-1])
        for command in ("gen", "train", "eval", "compare"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        labels, counts = tiers(cfg_path, out), ("tp", "fp", "fn", "tn")

        def read(name):
            with open(out / name, newline="") as fh:
                return list(csv.DictReader(fh))

        for kinds, dealer_file, report_file in (
                ([parse_config(cfg_path).kind], "report_dealers.csv", "report.csv"),
                (MODEL_KINDS, "compare_dealers.csv", "compare_report.csv")):
            dealers = read(dealer_file)
            # every dealer once per model, in ascending id, with its derived tier
            assert [(row["model"], row["dealer"], row["tier"]) for row in dealers] == [
                (kind, dealer, str(labels[dealer])) for kind in kinds for dealer in sorted(labels)]
            expected = []
            for kind in kinds:
                mine = [row for row in dealers if row["model"] == kind]
                for key in [*sorted({row["tier"] for row in mine}), "all"]:
                    expected.append([kind, key, *(sum(int(row[name]) for row in mine
                                                      if key in (row["tier"], "all"))
                                                  for name in counts)])
            assert [[row["model"], row["cluster"], *(int(row[name]) for name in counts)]
                    for row in read(report_file)] == expected, report_file
            for row in dealers:
                assert [float(row[name]) for name in ("precision", "recall", "f1")] == list(
                    micro_prf(*(int(row[name]) for name in counts[:3])))
        # the tables that score_units returned are the ones written, and each day
        # row of compare_days.csv sums one model's dealer counts of that day
        eval_table, *compare_tables = tables
        assert [table[0][2].model for table in tables] == [parse_config(cfg_path).kind,
                                                           *MODEL_KINDS]
        for written, scored in (("report_dealers.csv", [eval_table]),
                                ("compare_dealers.csv", compare_tables)):
            assert [[row["model"], row["dealer"], int(row["tier"]),
                     *(int(row[name]) for name in counts)] for row in read(written)] == [
                [report.model, dealer, tier, *report.pooled]
                for table in scored for dealer, tier, report in table], written
        days = ["union"] if mode == "union" else ["1", "2"]
        expected = []
        for kind, table in zip(MODEL_KINDS, compare_tables):
            per_day = np.sum([report.counts for _, _, report in table], axis=0)
            expected += [[kind, day, *day_counts.tolist()]
                         for day, day_counts in zip(days, per_day, strict=True)]
        assert [[row["model"], row["day"], *(int(row[name]) for name in counts)]
                for row in read("compare_days.csv")] == expected

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
        histories, days, vocab_size, _ = market.load_histories(out / "histories.bin")
        samples = [s for h in histories
                   for s in market.windowize(h, cfg.t_in, cfg.t_out, cfg.stride)]
        train_s, test_s = market.split_train_test(samples, days, cfg.train_fraction)
        labels = tiers(cfg_path, out)
        with warnings.catch_warnings(record=True) as lib_warnings:
            warnings.simplefilter("always")
            units = training_units("cluster", train_s, test_s, labels)
            rows, dealers = [], []
            for kind in MODEL_KINDS:
                models = [build_model(cfg.model_config(vocab_size, kind)) for _ in units]
                for model, (_, unit_train, _) in zip(models, units):
                    train(model, unit_train, cfg.train_spec())
                table = score_units(kind, units, models, cfg.threshold, cfg.eval_mode, labels)
                rows += tier_rows(kind, table)
                dealers += table
        write_reports(tmp_path / "library.csv", "cluster", rows)
        assert (tmp_path / "library.csv").read_bytes() == (out / "compare_report.csv").read_bytes()
        write_dealers(tmp_path / "dealers.csv", dealers)
        assert (tmp_path / "dealers.csv").read_bytes() == (out / "compare_dealers.csv").read_bytes()
        write_days(tmp_path / "days.csv", cfg.eval_mode, [r for c, r in rows if c == "all"])
        assert (tmp_path / "days.csv").read_bytes() == (out / "compare_days.csv").read_bytes()
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

    def test_compare_builds_each_kind_once_and_trains_every_unit_from_its_start(
            self, tmp_path, monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"))
        for command in ("gen", "cluster"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        built, trained = {}, []
        build, fit = cli.build_model, cli.train

        def counted_build(config):
            model = build(config)
            assert config.kind not in built, f"{config.kind} built twice"
            built[config.kind] = model.params.flat.tobytes()
            return model

        def checked_fit(model, samples, spec):
            kind = model.config.kind
            assert model.params.flat.tobytes() == built[kind], f"{kind} unit {len(trained)}"
            trained.append(kind)
            return fit(model, samples, spec)

        monkeypatch.setattr(cli, "build_model", counted_build)
        monkeypatch.setattr(cli, "train", checked_fit)
        assert self.run("compare", "-c", str(cfg_path)) == 0
        assert list(built) == list(MODEL_KINDS)
        units = len(set(tiers(cfg_path, out).values()))
        assert units > 1
        assert trained == [kind for kind in MODEL_KINDS for _ in range(units)]

    def test_train_and_eval_build_one_model_for_every_unit(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = individual"))
        assert self.run("gen", "-c", str(cfg_path)) == 0
        build = cli.build_model
        for command in ("train", "eval"):
            built = []

            def counted_build(config):
                built.append(config)
                return build(config)

            monkeypatch.setattr(cli, "build_model", counted_build)
            assert self.run(command, "-c", str(cfg_path)) == 0, command
            assert len(built) == 1, command
        # each unit trained from the initial parameters: its checkpoint is a fresh build's
        cfg = parse_config(cfg_path)
        vocab_size, units, _, _ = cli._prepare(cfg, out)
        assert len(units) == 6
        for tag, unit_train, _ in units:
            model = build(cfg.model_config(vocab_size))
            harness.train(model, unit_train, cfg.train_spec())
            save_checkpoint(tmp_path / "fresh.ckpt", model, trained_on(cfg, out))
            trained = out / f"checkpoint_{tag}.ckpt"
            assert trained.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes(), tag

    @pytest.mark.parametrize("command", ["cluster", "train", "eval", "compare"])
    def test_each_command_reads_histories_once(self, tmp_path, monkeypatch, command):
        """Every open of histories.bin is counted, whatever reads it: the digest
        a checkpoint pins is of the bytes the command parsed."""
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"))
        for before in ("gen", "train") if command == "eval" else ("gen",):
            assert self.run(before, "-c", str(cfg_path)) == 0, before
        path, opens, real_open = out / "histories.bin", [], io.open

        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opens.append(file)
            return real_open(file, *args, **kwargs)

        for module in (builtins, io):  # pathlib's read_bytes opens through io.open
            monkeypatch.setattr(module, "open", counted)
        assert self.run(command, "-c", str(cfg_path)) == 0
        assert len(opens) == 1

    def test_eval_scores_each_unit_before_loading_the_next(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = individual"))
        for command in ("gen", "cluster", "train"):
            assert self.run(command, "-c", str(cfg_path)) == 0, command
        events, last = [], []
        check, evaluate = cli.check_checkpoint, harness.evaluate

        def checked(path, model, record):
            values = check(path, model, record)
            events.append(("check", path.name))
            last[:] = [path]
            return values

        def scored(model, *args, **kwargs):
            # the one model holds the payload of the checkpoint checked last
            assert model.params.flat.tobytes() == last[0].read_bytes().split(b"\n", 1)[1]
            events.append(("score", last[0].name))
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(cli, "check_checkpoint", checked)
        monkeypatch.setattr(harness, "evaluate", scored)
        assert self.run("eval", "-c", str(cfg_path)) == 0
        paths = sorted(p.name for p in out.glob("checkpoint_*.ckpt"))
        assert len(paths) > 1
        # every checkpoint is checked before the first unit is scored
        order = [tag for step, tag in events[:len(paths)] if step == "check"]
        assert sorted(order) == paths
        # then each unit is loaded, through its second check, and scored before the next
        assert events[len(paths):] == [(step, tag) for tag in order for step in ("check", "score")]

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

    @pytest.mark.parametrize("command, train_fraction, split", [
        pytest.param("eval", "0.9", "test", id="eval"),
        pytest.param("compare", "0.9", "test", id="compare"),
        *(pytest.param(command, "0.1", "training", id=f"{command}-no-training-window")
          for command in ("train", "eval", "compare")),
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


COMPARE_OUTPUTS = ("compare_f1.csv", "compare_report.csv", "compare_days.csv")


class TestClustersFile:
    """No command but `cluster` touches clusters.csv: `train`, `eval` and
    `compare` derive the tiers from the histories they load."""

    def run(self, cfg_path, *commands, outputs=COMPARE_OUTPUTS):
        """Run ``commands`` in order; returns the bytes of ``outputs``."""
        for command in commands:
            assert main([command, "-c", str(cfg_path)]) == 0, command
        out = Path(parse_config(cfg_path).output_dir)
        return {name: (out / name).read_bytes() for name in outputs}

    def config(self, directory, text):
        directory.mkdir(exist_ok=True)
        return write_config(directory, text=text)

    @pytest.mark.parametrize("granularity", ["single", "cluster", "individual"])
    def test_no_command_needs_cluster(self, tmp_path, granularity):
        text = TINY_CONFIG.replace("granularity = single", f"granularity = {granularity}")
        with_cluster, _ = self.config(tmp_path / "with", text)
        without, out = self.config(tmp_path / "without", text)
        assert self.run(without, "gen", "compare") == self.run(with_cluster, "gen", "cluster",
                                                               "compare")
        assert self.run(without, "train", "eval", outputs=["report.csv"]) == self.run(
            with_cluster, "train", "eval", outputs=["report.csv"])
        assert not (out / "clusters.csv").exists()

    @pytest.mark.parametrize("edit", [
        *(pytest.param(lambda path, cut=cut: truncate(path, cut), id=f"cut-{cut}")
          for cut in (0, 8, 30, 88, 0.5)),
        pytest.param(lambda path: path.write_bytes(b"\xff\x00 not a csv\r\n"), id="garbage"),
        pytest.param(lambda path: path.write_text(path.read_text().replace(",0\n", ",7\n")),
                     id="label-7"),
        pytest.param(lambda path: path.unlink(), id="deleted"),
        pytest.param(lambda path: path.unlink() or path.mkdir(), id="directory"),
    ])
    def test_a_broken_clusters_file_changes_no_output(self, tmp_path, edit):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"))
        before = self.run(cfg_path, "gen", "cluster", "compare")
        edit(out / "clusters.csv")
        assert self.run(cfg_path, "compare") == before

    def test_compare_after_a_new_gen_scores_the_new_tiers(self, tmp_path):
        # the same dealer ids in an eight-dealer market, then in a six-dealer one
        eight = TINY_CONFIG.replace("periodic_dealers = 3", "periodic_dealers = 5") \
                           .replace("top_dealers = 6", "top_dealers = 8")
        cfg_path, out = self.config(tmp_path / "stale", eight)
        self.run(cfg_path, "gen", "cluster", outputs=())
        stale = (out / "clusters.csv").read_bytes()
        cfg_path, out = self.config(tmp_path / "stale", TINY_CONFIG)
        fresh_path, fresh_out = self.config(tmp_path / "fresh", TINY_CONFIG)
        assert self.run(cfg_path, "gen", "compare") == self.run(fresh_path, "gen", "cluster",
                                                                "compare")
        assert (out / "clusters.csv").read_bytes() == stale != (
            fresh_out / "clusters.csv").read_bytes()

    @pytest.mark.parametrize("granularity", ["single", "cluster", "individual"])
    def test_compare_uses_the_tiers_of_its_own_split(self, tmp_path, granularity):
        # this market's tiers over the first 24 days differ from those over the first 15
        text = TINY_CONFIG.replace("seed = 3", "seed = 4") \
                          .replace("granularity = single", f"granularity = {granularity}")
        at = {fraction: text.replace("train_fraction = 0.8", f"train_fraction = {fraction}")
              for fraction in ("0.8", "0.5")}
        earlier, out = self.config(tmp_path / "earlier", at["0.8"])
        self.run(earlier, "gen", "cluster", outputs=())
        stale = (out / "clusters.csv").read_bytes()
        later, _ = self.config(tmp_path / "earlier", at["0.5"])
        fresh, fresh_out = self.config(tmp_path / "fresh", at["0.5"])
        assert self.run(later, "compare") == self.run(fresh, "gen", "cluster", "compare")
        assert stale != (fresh_out / "clusters.csv").read_bytes()

    def test_a_broken_clusters_file_changes_no_checkpoint_or_report(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("granularity = single", "granularity = cluster"))
        self.run(cfg_path, "gen", "cluster", "train", outputs=())
        outputs = sorted(path.name for path in out.glob("checkpoint_*.ckpt")) + ["report.csv"]
        assert len(outputs) > 2
        before = self.run(cfg_path, "eval", outputs=outputs)
        (out / "clusters.csv").write_bytes(b"\xff\x00 not a csv\r\n")
        assert self.run(cfg_path, "train", "eval", outputs=outputs) == before

    @pytest.mark.parametrize("fraction", ["0.5", "0.8"])
    def test_cluster_writes_the_tiers_the_commands_derive(self, tmp_path, fraction):
        text = TINY_CONFIG.replace("seed = 3", "seed = 4") \
                          .replace("train_fraction = 0.8", f"train_fraction = {fraction}")
        cfg_path, out = write_config(tmp_path, text=text)
        self.run(cfg_path, "gen", "cluster", outputs=())
        source = hashlib.sha256((out / "histories.bin").read_bytes()).hexdigest()
        rows = [("histories_sha256", source), *sorted(tiers(cfg_path, out).items())]
        assert (out / "clusters.csv").read_bytes() == "".join(
            f"{a},{b}\r\n" for a, b in rows).encode()


TIER_DAYS = 40


def graded_histories(seed, dealers=16, vocab_size=5):
    """Dealers D00, D01, ... whose every cell of every day holds a trade
    with a probability rising from 1% for D00 to 60% for the last."""
    rng = np.random.default_rng(seed)
    return [market.DealerHistory(f"D{i:02d}",
                                 (rng.random((TIER_DAYS, 2 * vocab_size)) < rate).astype(np.uint8))
            for i, rate in enumerate(np.geomspace(0.01, 0.6, dealers))]


class TestTiers:
    """`cli._tiers` is a function of the histories' training days, the
    train fraction and the seed alone."""

    def labels(self, histories, cfg=RunConfig(), **settings):
        return cli._tiers(replace(cfg, **settings), histories, TIER_DAYS).labels

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_the_test_days_move_no_dealer(self, fraction):
        before = self.labels(graded_histories(0), train_fraction=fraction)
        histories = graded_histories(0)
        boundary = market.split_boundary(TIER_DAYS, fraction)
        rng = np.random.default_rng(1)
        for h in histories:
            h.day_vectors[boundary:] = rng.random(h.day_vectors[boundary:].shape) < 0.5
        assert self.labels(histories, train_fraction=fraction) == before

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_a_busy_training_calendar_puts_the_quietest_dealer_on_top(self, fraction):
        histories = graded_histories(0)
        before = self.labels(histories, train_fraction=fraction)
        assert before["D00"] < max(before.values())
        histories[0].day_vectors[:market.split_boundary(TIER_DAYS, fraction)] = 1
        after = self.labels(histories, train_fraction=fraction)
        assert after["D00"] == max(after.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiers_run_least_active_first(self, seed):
        histories = graded_histories(seed)
        labels = self.labels(histories, seed=seed)
        assert set(labels) == {h.dealer_id for h in histories}
        assert sorted(set(labels.values())) == list(range(cli.TIERS))
        boundary = market.split_boundary(TIER_DAYS, RunConfig().train_fraction)
        trades = {h.dealer_id: int(h.day_vectors[:boundary].sum()) for h in histories}
        means = [np.mean([trades[d] for d, label in labels.items() if label == tier])
                 for tier in range(cli.TIERS)]
        assert means == sorted(means)

    def test_no_other_setting_moves_a_dealer(self, tmp_path):
        sections: dict[str, list[str]] = {}
        for key in fields(RunConfig):
            if key.name not in ("train_fraction", "seed"):
                sections.setdefault(key.metadata["section"], []).append(
                    f"{key.name} = {SETTING_VALUES[key.name][0]}")
        path = tmp_path / "c.ini"
        path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                                for name, lines in sections.items()))
        cfg = parse_config(path)
        assert cfg.train_fraction == RunConfig().train_fraction and cfg.seed == RunConfig().seed
        assert all(getattr(cfg, key.name) != key.default for key in fields(RunConfig)
                   if key.name not in ("train_fraction", "seed"))
        for seed in range(3):
            assert self.labels(graded_histories(seed), cfg) == self.labels(graded_histories(seed))


def trained_on(cfg, out):
    """What a checkpoint of ``cfg`` records it was fitted to besides its model
    config: the digest of ``out``'s histories, the split and the training settings."""
    digest = hashlib.sha256((out / "histories.bin").read_bytes()).hexdigest()
    spec = cfg.train_spec()
    return {"histories_sha256": digest, "train_fraction": cfg.train_fraction,
            "stride": cfg.stride, "train_epochs": spec.epochs, "train_batch_size": spec.batch_size,
            "train_learning_rate": spec.learning_rate, "train_seed": spec.seed}


def load_trained(cfg_path, out, tag="single"):
    """A fresh build of the run config's model, filled from unit ``tag``'s checkpoint."""
    _, _, vocab_size, _ = market.load_histories(out / "histories.bin")
    cfg = parse_config(cfg_path)
    model = build_model(cfg.model_config(vocab_size))
    path = out / f"checkpoint_{tag}.ckpt"
    model.params.flat[:] = check_checkpoint(path, model, trained_on(cfg, out))
    return model


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
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "checkpoint_single.ckpt" in err and "heads = 4" in err and "2" in err

    def test_checkpoint_under_other_train_fraction_exits_2(self, tmp_path, capsys):
        # at 0.5 the test split would hold windows the checkpoint trained on at 0.8
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        cfg_path, _ = write_config(
            tmp_path, text=TINY_CONFIG.replace("train_fraction = 0.8", "train_fraction = 0.5"))
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "checkpoint_single.ckpt: train_fraction = 0.8, expected 0.5" in err
        assert not (out / "report.csv").exists()

    def test_refused_eval_keeps_the_echo(self, tmp_path, capsys):
        # the echo names the config the directory's artifacts were made under
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        echo = (out / "config.resolved.ini").read_bytes()
        assert b"train_fraction = 0.8\n" in echo
        cfg_path, _ = write_config(
            tmp_path, text=TINY_CONFIG.replace("train_fraction = 0.8", "train_fraction = 0.5"))
        assert main(["eval", "-c", str(cfg_path)]) == 2
        assert (out / "config.resolved.ini").read_bytes() == echo

    def test_checkpoint_under_other_stride_exits_2(self, tmp_path, capsys):
        # at stride 1 the split holds windows that a stride-2 checkpoint never saw
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        cfg_path, _ = write_config(tmp_path, text=TINY_CONFIG.replace("stride = 2", "stride = 1"))
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "checkpoint_single.ckpt: stride = 2, expected 1" in err
        assert not (out / "report.csv").exists() and not (out / "report_dealers.csv").exists()

    @pytest.mark.parametrize("setting, value, message", [
        # a 1-epoch checkpoint must not be scored as the 3-epoch model the config names
        ("epochs = 1", "epochs = 3", "train_epochs = 1, expected 3"),
        ("batch_size = 8", "batch_size = 4", "train_batch_size = 8, expected 4"),
        ("learning_rate = 0.005", "learning_rate = 0.5",
         "train_learning_rate = 0.005, expected 0.5"),
    ], ids=["epochs", "batch_size", "learning_rate"])
    def test_checkpoint_under_other_training_settings_exits_2(self, tmp_path, capsys,
                                                              setting, value, message):
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        assert TINY_CONFIG.count(setting) == 1
        cfg_path, _ = write_config(tmp_path, text=TINY_CONFIG.replace(setting, value))
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"checkpoint_single.ckpt: {message}" in err
        assert not (out / "report.csv").exists() and not (out / "report_dealers.csv").exists()

    def test_checkpoint_of_other_histories_exits_2(self, tmp_path, capsys):
        # another market of the same bonds: the model config cannot tell the
        # histories apart, so only the digest the checkpoint pins does
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "cluster", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        trained = trained_on(parse_config(cfg_path), out)["histories_sha256"]
        cfg_path, _ = write_config(
            tmp_path, text=TINY_CONFIG.replace("dense_rate = 2.0", "dense_rate = 3.0")
                                      .replace("periodic_max_bonds = 3", "periodic_max_bonds = 2"))
        assert main(["gen", "-c", str(cfg_path)]) == 0
        assert market.load_histories(out / "histories.bin")[2] == 6
        current = trained_on(parse_config(cfg_path), out)["histories_sha256"]
        assert current != trained
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"{path}: histories_sha256 = '{trained}', expected '{current}'" in err
        assert not (out / "report.csv").exists()
        # clusters.csv names the digest the checkpoint pins
        first = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[0]
        manifest = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert first == f"histories_sha256,{trained}" and manifest["histories_sha256"] == trained

    def test_manifest_config_cannot_drive_memory_use(self, tmp_path, capsys):
        # a short manifest asking for a large vocabulary, with no payload
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("kind = TransPPRZ", "kind = TransFV"))
        for command in ("gen", "cluster"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        _, _, vocab_size, _ = market.load_histories(out / "histories.bin")
        cfg = parse_config(cfg_path)
        config = cfg.model_config(vocab_size)
        path = out / "checkpoint_single.ckpt"
        manifest = {"magic": "otcforecast-checkpoint", "version": CHECKPOINT_VERSION,
                    **vars(config), "vocab_size": 20000, **trained_on(cfg, out)}
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n")
        assert path.stat().st_size < 512
        model = build_model(config)
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactError, match="vocab_size = 20000, expected"):
                check_checkpoint(path, model, trained_on(cfg, out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"vocab_size = 20000, expected {vocab_size}" in err

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
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"{path}: non-finite parameter value" in err
        assert not (path.parent / "report.csv").exists()

    def test_overflowing_checkpoint_exits_3(self, tmp_path, capsys):
        # finite parameters whose forecasts overflow
        cfg_path, path = self.trained_with_payload(
            tmp_path, "TransFV", lambda values: values.fill(1e300))
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: numeric failure:")
        assert "non-finite forecast" in err
        assert not (path.parent / "report.csv").exists()

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
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert "magic = None, expected 'otcforecast-checkpoint'" in err

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        cfg_path = self.rewrite_as_old_format(
            tmp_path, lambda manifest, entries: {**manifest, "version": 1, "entries": entries})
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"version = 1, expected {CHECKPOINT_VERSION}" in err

    @pytest.mark.parametrize("kind, commands", [("LSTM", ("eval",)),
                                                ("TransPPRZ", ("eval",))])
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
            assert f"version = 2, expected {CHECKPOINT_VERSION}" in err

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
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"version = 3, expected {CHECKPOINT_VERSION}" in err

    @pytest.mark.parametrize("version", [4, 5])
    def test_version_4_checkpoint_exits_2(self, tmp_path, capsys, version):
        # versions 4 and 5 nested the model config under "config"; version 4
        # did not record the train_fraction a checkpoint trained under, and
        # neither recorded the histories
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        config = {key.name: manifest[key.name] for key in fields(ModelConfig)}
        if version == 5:
            config["train_fraction"] = manifest["train_fraction"]
        old = {"magic": manifest["magic"], "version": version, "config": config}
        path.write_bytes(json.dumps(old, separators=(",", ":")).encode() + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"version = {version}, expected {CHECKPOINT_VERSION}" in err

    def test_version_6_checkpoint_exits_2(self, tmp_path, capsys):
        # version 6 did not record the training settings
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        old = {**{key: value for key, value in manifest.items() if not key.startswith("train_")},
               "train_fraction": manifest["train_fraction"], "version": 6}
        path.write_bytes(json.dumps(old, separators=(",", ":")).encode() + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"version = 6, expected {CHECKPOINT_VERSION}" in err

    def test_version_8_checkpoint_exits_2(self, tmp_path, capsys):
        # version 8 recorded the patience early stop, null when unset
        cfg_path, out = write_config(tmp_path)
        for command in ("gen", "train"):
            assert main([command, "-c", str(cfg_path)]) == 0, command
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        old = {**json.loads(header), "train_patience": None, "version": 8}
        path.write_bytes(json.dumps(old, separators=(",", ":")).encode() + b"\n" + payload)
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable artifact" in err
        assert f"version = 8, expected {CHECKPOINT_VERSION}" in err


def truncate(path, cut):
    """Keep the first ``cut`` bytes of a file: a byte count, a fraction of
    its length, or -1 for all but the last byte."""
    blob = path.read_bytes()
    keep = len(blob) - 1 if cut == -1 else int(cut * len(blob)) if isinstance(cut, float) else cut
    path.write_bytes(blob[:keep])
