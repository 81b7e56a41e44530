"""Config parsing and end-to-end command-line pipeline tests."""

import builtins
import csv
import fnmatch
import hashlib
import importlib
import io
import json
import os
import re
import shutil
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

from helpers import (CHECKPOINT_DEFECTS, HISTORIES_DEFECTS, SETTING_VALUES, interrupted_writes,
                     payload_edit, tiny_config)


# runs each command named after the config path in order, and exits at the first that fails
RUN_COMMANDS = """
import sys
from otcforecast.cli import main
for command in sys.argv[2:]:
    if main([command, "-c", sys.argv[1]]) != 0:
        sys.exit(f"{command} failed")
"""


# dealer ids that a unit file name must escape, and the tag each unit's files carry;
# "x%25y" is what a raw "x%y" would become, so the two names must differ
ODD_IDS = {"slash": ("a/b", "a%2Fb"), "nul": ("a\0b", "a%00b"), "non_ascii": ("Dé1", "D%C3%A91"),
           "percent": ("x%y", "x%25y"), "escaped_percent": ("x%25y", "x%2525y")}


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


def write_config(tmp_path, out=None, **settings):
    """``tmp_path``'s run.ini: :data:`TINY_CONFIG` with ``settings``, writing to ``out``."""
    path, out = tmp_path / "run.ini", tmp_path / "artifacts" if out is None else out
    path.write_text(tiny_config(**settings).format(out=out))
    return path, out


def ini(tmp_path, text):
    """``tmp_path``'s c.ini, holding ``text``."""
    path = tmp_path / "c.ini"
    path.write_text(text)
    return path


def non_default_ini(tmp_path, *left):
    """A c.ini setting every key but those ``left`` to its non-default valid value."""
    sections: dict[str, list[str]] = {}
    for key in fields(RunConfig):
        if key.name not in left:
            sections.setdefault(key.metadata["section"], []).append(
                f"{key.name} = {SETTING_VALUES[key.name].valid}")
    return ini(tmp_path, "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                                 for name, lines in sections.items()))


def run(cfg_path, *commands):
    """Run each of ``commands`` in process under ``cfg_path``; each must exit 0."""
    for command in commands:
        assert main([command, "-c", str(cfg_path)]) == 0, command


def refused(capsys, code, command, cfg_path, *phrases):
    """Run ``command`` in process under ``cfg_path`` and check that it fails as
    every failure of the CLI must: exit ``code``, and one line on stderr, with
    no traceback, holding each of ``phrases``.  Returns that line."""
    capsys.readouterr()
    assert main([command, "-c", str(cfg_path)]) == code, command
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, err
    for phrase in phrases:
        assert phrase in err, (phrase, err)
    return err.removesuffix("\n")


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
        path = ini(tmp_path, text)
        message = f"config file {path} has no section"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(path)
        monkeypatch.chdir(tmp_path)  # where the default output_dir would go
        assert refused(capsys, 1, "gen", path) == f"otcforecast: config error: {message}"
        assert sorted(os.listdir(tmp_path)) == ["c.ini"]
        path.write_text(text + "[run]\n")  # one section, even an empty one, means the defaults
        assert parse_config(path) == parse_config(None)

    def test_colon_delimiter_and_nonstandard_t_in(self, tmp_path):
        assert parse_config(ini(tmp_path, "[window]\nt_in: 7\n")).t_in == 7

    @pytest.mark.parametrize("text, message", [
        ("[window]\nt_inn = 5\n", "unknown key 't_inn'"),
        # patience, the early stop that training no longer has, is refused like any unknown
        # key, also as the empty line that every earlier config.resolved.ini echoed
        ("[train]\npatience = 3\n", "unknown key 'patience'"),
        ("[train]\npatience =\n", "unknown key 'patience'"),
        ("[windows]\nt_in = 5\n", "windows"),
        ("[model]\nkind = TransRE\nd_model = 6\nheads = 4\n", "divisible"),
        ("[DEFAULT]\nseed = 1\n", "DEFAULT"),
        # configparser's messages for these three span lines; the CLI prints them on one
        ("t_in = 5\n", "malformed"),  # a key before any section header
        ("[window\n", "malformed"),
        ("[window]\nt_in\nstride\n", "malformed"),
        ("[window]\nt_in = 5\nt_in = 6\n", "malformed"),
    ], ids=["t_inn", "patience", "patience_empty", "unknown-section", "heads-divisibility",
            "default-section", "key-before-section", "unclosed-header", "keys-without-values",
            "duplicate-key"])
    def test_refused_file_named_in_error(self, tmp_path, monkeypatch, capsys, text, message):
        path = ini(tmp_path, text)
        with pytest.raises(ConfigurationError, match=message):
            parse_config(path)
        monkeypatch.chdir(tmp_path)  # where the default output_dir would go
        refused(capsys, 1, "gen", path, "otcforecast: config error:", message)
        assert sorted(os.listdir(tmp_path)) == ["c.ini"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "absent.ini")

    def test_resolved_echo_round_trips(self, tmp_path):
        # an indented continuation line makes a multi-line output_dir
        for out in (tmp_path / "artifacts", "runs/a\n  b"):
            src, _ = write_config(tmp_path, out=out)
            cfg = parse_config(src)
            echoed = tmp_path / "resolved.ini"
            write_resolved(cfg, echoed)
            assert parse_config(echoed) == cfg

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "Infinity"])
    @pytest.mark.parametrize("key", [key for key in fields(RunConfig) if key.type == "float"],
                             ids=lambda key: key.name)
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        path = ini(tmp_path, f"[{key.metadata['section']}]\n{key.name} = {raw}\n")
        message = f"[{key.metadata['section']}] {key.name} must be {key.metadata['constraint']}"
        with pytest.raises(ConfigurationError, match=re.escape(f"{message}, got {raw!r}")):
            parse_config(path)

    @pytest.mark.parametrize("settings, error, message", [
        ({"dense_rate": "inf"}, ConfigurationError,
         "[market] dense_rate must be a float >= 0, got 'inf'"),
        # numpy's Generator.poisson refuses a mean above 2**63 - 10 * sqrt(2**63)
        *(({"dense_rate": raw}, ContractError, f"dense_rate {float(raw)!r} must be nonnegative "
           "and at most numpy's Poisson limit 9.223372006484771e+18")
          for raw in ("9.223372006484772e18", "1e19")),
        ({"kind": "TransFV", "d_model": 7, "heads": 1}, ConfigurationError,
         "positional encoding needs an even d_model"),
        ({"periodic_min_period": 5}, ContractError,
         "periodic_period_range (5, 4) needs 1 <= minimum <= maximum"),
        ({"periodic_min_bonds": 4}, ContractError,
         "periodic_bonds_range (4, 3) needs 0 <= minimum <= maximum"),
        ({"dense_min_bonds": 7}, ContractError,
         "dense_bonds_range (7, 6) needs 0 <= minimum <= maximum"),
    ], ids=["non-finite-rate", "poisson-limit", "past-poisson-limit", "odd-d_model",
            "inverted-period", "inverted-periodic-bonds", "inverted-dense-bonds"])
    def test_refused_at_parse_and_by_gen_before_writing(self, tmp_path, capsys, settings, error,
                                                        message):
        cfg_path, out = write_config(tmp_path, **settings)
        with pytest.raises(error, match=re.escape(message)):
            parse_config(cfg_path)
        assert refused(capsys, 1, "gen", cfg_path) == f"otcforecast: config error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("key", fields(RunConfig), ids=lambda key: key.name)
    def test_every_setting_round_trips_and_names_its_constraint(self, tmp_path, key):
        section, constraint = key.metadata.get("section"), key.metadata.get("constraint")
        assert section and constraint and key.type in PARSERS
        valid, invalid = SETTING_VALUES[key.name][:2]
        cfg = parse_config(path := ini(tmp_path, f"[{section}]\n{key.name} = {valid}\n"))
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


def spec_field(name):
    """The spec field that the setting ``name`` sets: a range end sets its range."""
    return re.sub(r"_(?:min|max)_(\w+)$", r"_\1_range", name)


# every setting a spec takes but the seed, from which RunConfig derives each spec's own
SPEC_SETTINGS = [key for key in fields(RunConfig) if key.name != "seed" and spec_field(key.name)
                 in {f.name for spec in EXPLICIT_SPEC_FIELDS for f in fields(spec)}]


def spec_errors(cfg):
    """The message of each spec that RunConfig builds from ``cfg`` and that refuses it."""
    errors = []
    for build in (RunConfig.market_spec, lambda cfg: cfg.model_config(1), RunConfig.train_spec):
        try:
            build(cfg)
        except (ContractError, ConfigurationError) as exc:
            errors.append(str(exc))
    return errors


class TestSpecsFromConfig:
    def test_every_spec_field_is_a_setting_or_explicit(self):
        settings = {key.name for key in fields(RunConfig)}
        for spec, explicit in EXPLICIT_SPEC_FIELDS.items():
            assert {f.name for f in fields(spec)} - explicit <= settings, spec.__name__

    def test_non_default_settings_reach_their_specs(self, tmp_path):
        cfg = parse_config(non_default_ini(tmp_path))
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

    @pytest.mark.parametrize("key", SPEC_SETTINGS, ids=lambda key: key.name)
    def test_spec_refuses_what_the_config_refuses(self, tmp_path, key):
        """parse_config and the spec refuse each typed value that the setting's row
        names, and both take a [market] count's floor."""
        name, section, row = key.name, key.metadata["section"], SETTING_VALUES[key.name]
        assert (row.floor is not None) == (section == "market" and key.type == "int")
        refused = [PARSERS[key.type](row.invalid) if row.floor is None else row.floor - 1,
                   *row.refused]
        for value in [*([] if row.floor is None else [row.floor]), *refused]:
            values = {name: value}
            for end, other in (("_min_", "_max_"), ("_max_", "_min_")):
                if end in name:  # the range's other end at the floor: only this key decides
                    values[name.replace(end, other)] = row.floor
            path = ini(tmp_path, f"[{section}]\n" + "".join(f"{k} = {v}\n"
                                                             for k, v in values.items()))
            errors = spec_errors(RunConfig(**values))
            if value == row.floor:
                assert getattr(parse_config(path), name) == value and errors == []
                continue
            with pytest.raises(ConfigurationError) as err:
                parse_config(path)
            assert str(err.value) == (f"[{section}] {name} must be "
                                      f"{key.metadata['constraint']}, got {str(value)!r}")
            assert len(errors) == 1 and spec_field(name) in errors[0], errors


class TestPipeline:
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
        run(cfg_path, "gen")
        histories, days, vocab_size, _ = market.load_histories(out / "histories.bin")
        assert days == 249 and vocab_size <= cfg.bonds
        assert len(histories) == cfg.periodic_dealers + cfg.sparse_dealers + cfg.dense_dealers

    def test_readme_cli_table_names_what_each_command_writes(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = {command: re.findall(r"`([^`]+)`", writes) for command, writes in
                 re.findall(r"^\| `(\w+)`\s*\|[^|]*\|([^|]*)\|$", readme, re.MULTILINE)}
        assert list(table) == list(cli._DISPATCH)
        cfg_path, out = write_config(tmp_path)
        for command, files in table.items():
            for path in out.glob("*"):  # so that any file the command writes is newer
                os.utime(path, ns=(0, 0))
            run(cfg_path, command)
            written = {p.name for p in out.glob("*") if p.stat().st_mtime_ns != 0}
            globs = [name.replace("<unit>", "*") for name in files]
            listed = {name for glob in globs for name in fnmatch.filter(written, glob)}
            assert written == {"config.resolved.ini", *listed}, command
            assert all(fnmatch.filter(written, glob) for glob in globs), command
        # in the directory the five commands filled, a command refused at parse touches nothing
        bad = tmp_path / "patience.ini"
        bad.write_text(cfg_path.read_text().replace("[train]\n", "[train]\npatience = 2\n"))
        for path in out.glob("*"):
            os.utime(path, ns=(0, 0))
        before = dict.fromkeys(os.listdir(out), 0)
        refused(capsys, 1, "train", bad, "unknown key 'patience' in section [train]")
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    @pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
    def test_compare_cut_in_write_dealers_keeps_the_earlier_table(self, tmp_path, monkeypatch,
                                                                   capsys, exc):
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen", "compare")
        with interrupted_writes(monkeypatch, out / "compare_dealers.csv", exc):
            if exc is KeyboardInterrupt:  # the interpreter exits 130 on it
                with pytest.raises(KeyboardInterrupt):
                    main(["compare", "-c", str(cfg_path)])
            else:
                refused(capsys, 2, "compare", cfg_path, "unusable path: interrupted mid-write")

    @pytest.mark.parametrize("before, command, missing, outs", [
        ((), "cluster", "histories.bin", ["artifacts"]),
        (("gen", "cluster"), "eval", "checkpoint_single.ckpt", ["artifacts"]),
        # an indented continuation line makes a multi-line output_dir, named with its
        # newline escaped
        ((), "eval", "histories.bin", ["a\n  b"]),
        # ... and a backslash then an n, named with its backslash doubled: the two differ
        ((), "eval", "histories.bin", ["o/a\n  b", "o/a\\nb"]),
    ], ids=["cluster_before_gen", "eval_before_train", "eval_before_gen_in_a_multi_line_dir",
            "eval_before_gen_in_a_dir_with_a_backslash"])
    def test_a_command_before_its_input_exits_2(self, tmp_path, capsys, before, command, missing,
                                                outs):
        lines = set()
        for out in outs:
            cfg_path, _ = write_config(tmp_path, out=tmp_path / out)
            run(cfg_path, *before)
            path = str(Path(parse_config(cfg_path).output_dir, missing))
            lines.add(refused(capsys, 2, command, cfg_path, "missing artifact",
                              path.replace("\\", "\\\\").replace("\n", "\\n")))
        assert len(lines) == len(outs)

    def test_gen_determinism_bytewise(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen")
        first = (out / "records.csv").read_bytes()
        first_hist = (out / "histories.bin").read_bytes()
        run(cfg_path, "gen")
        assert (out / "records.csv").read_bytes() == first
        assert (out / "histories.bin").read_bytes() == first_hist

    def test_dealers_file_holds_every_generated_dealers_plan(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen")
        with open(out / "dealers.csv", newline="", encoding="utf-8") as fh:
            first, header, *rows = csv.reader(fh)
        digest = hashlib.sha256((out / "histories.bin").read_bytes()).hexdigest()
        assert first == ["histories_sha256", digest]
        assert header == ["dealer_id", "archetype", "period", "buys", "sells", "universe_width"]
        plans = market.dealer_plans(parse_config(cfg_path).market_spec())
        assert [(*row[:2], row[-1]) for row in rows] == [
            (p.dealer_id, p.archetype, "" if p.universe is None else str(len(p.universe)))
            for p in plans]
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
        {"bonds": 0}, {"periodic_dealers": 0, "sparse_dealers": 0, "dense_dealers": 0},
    ], ids=["no-bonds", "no-dealers"])
    def test_gen_refuses_an_empty_market(self, tmp_path, capsys, edit):
        cfg_path, out = write_config(tmp_path, **edit)
        err = refused(capsys, 1, "gen", cfg_path, "no dealer with a record left after the filters")
        assert err.startswith("otcforecast: config error:")
        assert list(out.iterdir()) == []

    def test_cluster_warns_about_empty_tiers(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, periodic_dealers=1, sparse_dealers=0,
                                     dense_dealers=0)
        run(cfg_path, "gen")
        with pytest.warns(UserWarning) as caught:
            run(cfg_path, "cluster")
        assert [str(w.message) for w in caught] == ["cluster: no dealer holds tier 1, 2, 3 of 0-3"]
        assert capsys.readouterr().out.endswith("(1 dealers, 1 populated tiers)\n")
        assert (out / "clusters.csv").read_text().splitlines()[1:] == ["D0000,0"]
        # compare_f1.csv leaves the empty tiers' columns blank
        run(cfg_path, "compare")
        with open(out / "compare_f1.csv", newline="") as fh:
            _, *grid = csv.reader(fh)
        assert [row[0] for row in grid] == list(MODEL_KINDS)
        assert all(row[1] and row[2:5] == ["", "", ""] and row[5] for row in grid), grid

    @pytest.mark.parametrize("text, phrase", [
        ("[window]\nt_inn = 3\n".encode(), "t_inn"),
        ("[run]\n# d\xe9j\xe0 vu\nseed = 3\n".encode("latin-1"), "c.ini"),  # not UTF-8
    ], ids=["unknown_key", "non_utf8"])
    def test_bad_config_exits_1(self, tmp_path, capsys, text, phrase):
        (path := tmp_path / "c.ini").write_bytes(text)
        assert refused(capsys, 1, "gen", path, phrase).startswith("otcforecast: config error:")

    @pytest.mark.parametrize("command, taken", [("gen", ""), ("cluster", "histories.bin")],
                             ids=["output_dir_that_is_a_file", "histories_that_is_a_directory"])
    def test_an_artifact_path_of_the_wrong_kind_exits_2(self, tmp_path, capsys, command, taken):
        cfg_path, out = write_config(tmp_path)
        if taken:
            (out / taken).mkdir(parents=True)
        else:
            out.write_text("not a directory\n")
        refused(capsys, 2, command, cfg_path, str(out / taken))

    # an empty output_dir would be Path(""), the working directory; the failure line
    # doubles the backslash of the NUL's repr
    @pytest.mark.parametrize("out, shown", [("out\0x", "'out\\\\x00x'"), ("", "''")],
                             ids=["nul", "empty"])
    def test_output_dir_with_a_nul_exits_1_before_writing(self, tmp_path, monkeypatch, capsys,
                                                           out, shown):
        cfg_path, _ = write_config(tmp_path, out=out)
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "cluster", "train", "eval", "compare"):
            assert refused(capsys, 1, command, cfg_path) == (
                "otcforecast: config error: [run] output_dir must be a non-empty path without "
                f"a NUL character, got {shown}")
        assert list(tmp_path.iterdir()) == [cfg_path]

    # a usage error exits 1 with argparse's error line alone, without its usage line
    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown_command", "no_command"])
    def test_console_script_is_the_cli_main(self, capsys, argv, message):
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["otcforecast"]
        module, attr = target.split(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry is cli.main
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"otcforecast: error: {message}") and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_3(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, learning_rate=1e200, epochs=3)
        run(cfg_path, "gen")
        refused(capsys, 3, "train", cfg_path, "numeric failure")

    def test_fc_train_probes_no_layer_stats(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path, kind="FCSum")
        probed = []
        monkeypatch.setattr(cli, "layer_signal_stats", lambda *args, **kwargs: probed.append(1))
        run(cfg_path, "gen", "cluster", "train")
        assert (out / "checkpoint_single.ckpt").exists()
        assert probed == []
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert [list(json.loads(line)) for line in lines] == [["model", "epoch", "loss"]] * 2

    @pytest.mark.parametrize("trained_before", [False, True], ids=["fresh", "retrained"])
    def test_train_with_a_non_finite_layer_statistic_exits_3(self, tmp_path, capsys,
                                                              monkeypatch, trained_before):
        cfg_path, out = write_config(tmp_path, kind="TransFV")
        run(cfg_path, "gen")
        if trained_before:
            run(cfg_path, "train")
        layer_signal_stats = cli.layer_signal_stats
        calls = []

        def overflowing(model, samples):
            calls.append(model)
            if len(calls) > 1:  # after epoch 1: finite parameters whose statistics overflow
                model.params.flat[:] = 1e300
            return layer_signal_stats(model, samples)

        monkeypatch.setattr(cli, "layer_signal_stats", overflowing)
        err = refused(capsys, 3, "train", cfg_path, "non-finite layer statistic")
        assert err.startswith("otcforecast: numeric failure:")
        # the statistics are taken while training: the unit has no checkpoint,
        # not even one an earlier train saved, and its log holds the lines
        # before the failure, the model as built
        assert len(calls) == 2 and not list(out.glob("checkpoint_*"))
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0]
        refused(capsys, 2, "eval", cfg_path, "missing artifact", "checkpoint_single.ckpt")

    @pytest.fixture(scope="class")
    def odd_ids(self, tmp_path_factory):
        """A market whose first dealers carry :data:`ODD_IDS`, run through `cluster`,
        `train` and `eval` in one subprocess under the C locale with UTF-8 mode off:
        (output dir, case -> (dealer id, unit tag)); the last dealer keeps its id."""
        cfg_path, out = write_config(tmp_path_factory.mktemp("odd_ids"), granularity="individual")
        run(cfg_path, "gen")
        ids = rename_dealers(out / "histories.bin", [ident for ident, _ in ODD_IDS.values()])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": str(Path(otcforecast.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, str(cfg_path), "cluster",
                               "train", "eval"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out, {**ODD_IDS, "generated": (ids[-1], ids[-1])}

    def test_any_nonempty_dealer_id_at_individual_granularity(self, odd_ids):
        """CSV artifacts are UTF-8 and unit file names ASCII whatever the locale:
        one row of clusters.csv, one checkpoint and one log per dealer, and no directory."""
        out, units = odd_ids
        assert all(name.isascii() for name in os.listdir(out))
        assert not [p for p in out.iterdir() if p.is_dir()]
        rows = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == len(list(out.glob("checkpoint_*.ckpt"))) == len(
            list(out.glob("train_log_*.jsonl"))) == len(units)

    @pytest.mark.parametrize("case", [*ODD_IDS, "generated"])
    def test_each_dealer_id_keeps_its_row_and_unit_files(self, odd_ids, case):
        out, units = odd_ids
        ident, tag = units[case]
        rows = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert ident in [row.split(",")[0] for row in rows]
        assert (out / f"checkpoint_dealer_{tag}.ckpt").is_file()
        assert (out / f"train_log_dealer_{tag}.jsonl").is_file()

    @pytest.mark.parametrize("mode", ["per_day", "union"])
    def test_report_rows_count_every_decision_cell(self, tmp_path, mode):
        cfg_path, out = write_config(tmp_path, granularity="cluster", eval_mode=mode)
        run(cfg_path, "gen", "cluster", "train", "eval")
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
            assert row["granularity"] == "cluster"

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("kind", ["TransPPRZ", "TransRE"])
    def test_train_logs_each_units_epochs(self, tmp_path, kind, epochs):
        cfg_path, out = write_config(tmp_path, granularity="cluster", kind=kind, epochs=epochs)
        run(cfg_path, "gen", "cluster", "train")
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
        run(cfg_path, "gen", "train")
        lines = (out / "train_log_single.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(list(json.loads(line)) == keys.split(",") for line in lines)

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_tier_all_and_day_rows_are_sums_of_the_dealer_table(self, tmp_path, monkeypatch,
                                                                granularity, mode):
        cfg_path, out = write_config(tmp_path, granularity=granularity, eval_mode=mode)
        tables, scoring = [], cli.score_units
        monkeypatch.setattr(cli, "score_units", lambda *args: tables.append(scoring(*args))
                            or tables[-1])
        run(cfg_path, "gen", "train", "eval", "compare")
        labels, counts = tiers(cfg_path, out), ("tp", "fp", "fn", "tn")

        def read(name):
            with open(out / name, newline="") as fh:
                return list(csv.DictReader(fh))

        for kinds, dealer_file, report_file in (
                ([parse_config(cfg_path).kind], "report_dealers.csv", "report.csv"),
                (MODEL_KINDS, "compare_dealers.csv", "compare_report.csv")):
            dealers = read(dealer_file)
            assert list(dealers[0]) == ["model", "dealer", "tier", *counts,
                                        "precision", "recall", "f1"], dealer_file
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
            assert len({int(day_counts.sum()) for day_counts in per_day}) == 1  # windows x 2V
        day_rows = read("compare_days.csv")
        assert list(day_rows[0]) == ["model", "day", *counts, "precision", "recall", "f1"]
        assert [[row["model"], row["day"], *(int(row[name]) for name in counts)]
                for row in day_rows] == expected
        for row in day_rows:
            assert [row[name] for name in ("precision", "recall", "f1")] == [
                repr(score) for score in micro_prf(*(int(row[name]) for name in counts[:3]))]

    @pytest.mark.parametrize("train_fraction", ["0.8"])
    def test_compare_matches_library_driver(self, tmp_path, train_fraction):
        cfg_path, out = write_config(tmp_path, granularity="cluster", train_fraction=train_fraction)
        run(cfg_path, "gen", "cluster")
        with warnings.catch_warnings(record=True) as cli_warnings:
            warnings.simplefilter("always")
            run(cfg_path, "compare")
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

    def test_compare_forms_units_and_builds_each_kind_once(self, tmp_path, monkeypatch):
        # ... and trains every unit from the kind's initial parameters
        cfg_path, out = write_config(tmp_path, granularity="cluster")
        run(cfg_path, "gen", "cluster")
        built, trained, formed = {}, [], []
        build, fit, forming = cli.build_model, cli.train, harness.training_units

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
        for module in (cli, harness):
            monkeypatch.setattr(module, "training_units",
                                lambda *args: formed.append(args[0]) or forming(*args))
        run(cfg_path, "compare")
        assert formed == ["cluster"] and list(built) == list(MODEL_KINDS)
        units = len(set(tiers(cfg_path, out).values()))
        assert units > 1
        assert trained == [kind for kind in MODEL_KINDS for _ in range(units)]

    def test_train_and_eval_build_one_model_for_every_unit(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path, granularity="individual")
        run(cfg_path, "gen")
        build = cli.build_model
        for command in ("train", "eval"):
            built = []

            def counted_build(config):
                built.append(config)
                return build(config)

            monkeypatch.setattr(cli, "build_model", counted_build)
            run(cfg_path, command)
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
        cfg_path, out = write_config(tmp_path, granularity="cluster")
        run(cfg_path, "gen")
        if command == "eval":
            run(cfg_path, "train")
        path, opens, real_open = out / "histories.bin", [], io.open

        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opens.append(file)
            return real_open(file, *args, **kwargs)

        for module in (builtins, io):  # pathlib's read_bytes opens through io.open
            monkeypatch.setattr(module, "open", counted)
        run(cfg_path, command)
        assert len(opens) == 1

    def test_eval_scores_each_unit_before_loading_the_next(self, tmp_path, monkeypatch):
        cfg_path, out = write_config(tmp_path, granularity="individual")
        run(cfg_path, "gen", "cluster", "train")
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
        run(cfg_path, "eval")
        paths = sorted(p.name for p in out.glob("checkpoint_*.ckpt"))
        assert len(paths) > 1
        # every checkpoint is checked before the first unit is scored
        order = [tag for step, tag in events[:len(paths)] if step == "check"]
        assert sorted(order) == paths
        # then each unit is loaded, through its second check, and scored before the next
        assert events[len(paths):] == [(step, tag) for tag in order for step in ("check", "score")]

    @pytest.mark.parametrize("edit, phrase", [
        (lambda last: last.unlink(), "missing artifact"),
        (lambda last: last.write_bytes(CHECKPOINT_DEFECTS["one-inf"][0](last.read_bytes())),
         CHECKPOINT_DEFECTS["one-inf"][1]),
    ], ids=["missing", "non_finite"])
    def test_eval_with_a_bad_last_unit_checkpoint_scores_no_unit(self, tmp_path, capsys,
                                                                 monkeypatch, edit, phrase):
        cfg_path, out = write_config(tmp_path, granularity="individual")
        run(cfg_path, "gen", "cluster", "train")
        last = sorted(out.glob("checkpoint_*.ckpt"))[-1]
        edit(last)
        scored = []
        evaluate = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *args, **kwargs: scored.append(1) or evaluate(*args, **kwargs))
        refused(capsys, 2, "eval", cfg_path, f"{last}", phrase)
        # every checkpoint is checked before the first unit is scored
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
        cfg_path, out = write_config(tmp_path, train_fraction=train_fraction)
        run(cfg_path, "gen", "cluster")
        artifacts = sorted(out.iterdir())
        err = refused(capsys, 1, command, cfg_path, f"no {split} window", "days 30", "t_in 3",
                      "t_out 2", f"train_fraction {train_fraction}")
        assert err.startswith("otcforecast: config error:")
        assert sorted(out.iterdir()) == artifacts

    @pytest.mark.parametrize("blob, message", HISTORIES_DEFECTS.values(), ids=HISTORIES_DEFECTS)
    def test_a_defective_histories_file_exits_2(self, tmp_path, capsys, blob, message):
        cfg_path, out = write_config(tmp_path)
        out.mkdir()
        (path := out / "histories.bin").write_bytes(blob)
        for command in ("cluster", "train", "eval", "compare"):
            refused(capsys, 2, command, cfg_path,
                    f"otcforecast: unreadable artifact {path}: {message}")
        assert os.listdir(out) == ["histories.bin"]

    def test_compare_checks_every_model_config_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        # heads 4 does not divide d_model 6, which only the transformer kinds
        # need; LSTM itself is valid, so the config parses
        cfg_path, out = write_config(tmp_path, kind="LSTM", d_model=6, heads=4)
        run(cfg_path, "gen", "cluster")
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args: trained.append(args))
        refused(capsys, 1, "compare", cfg_path, "divisible by heads=4")
        assert trained == []


# the commands that read the tiers, and the files of theirs that the tiers decide
TIER_COMMANDS = ("compare", "train", "eval")
COMPARE_OUTPUTS = ("compare_f1.csv", "compare_report.csv", "compare_days.csv")

# the settings of the clean run the broken files are set against: this market's tiers
# over the first 15 days differ from those over the first 24
CLEAN = {"seed": 4, "granularity": "cluster", "train_fraction": 0.5}


def tier_outputs(out, *commands):
    """The bytes of each file that ``commands`` wrote in ``out`` and that the tiers decide."""
    names = [*COMPARE_OUTPUTS] if "compare" in commands else []
    if "eval" in commands:  # after a train
        names += [*sorted(p.name for p in out.glob("checkpoint_*.ckpt")), "report.csv"]
    return {name: (out / name).read_bytes() for name in names}


class TestClustersFile:
    """No command but `cluster` touches clusters.csv: `train`, `eval` and
    `compare` derive the tiers from the histories they load."""

    def config(self, directory, **settings):
        directory.mkdir(exist_ok=True)
        return write_config(directory, **settings)

    @pytest.mark.parametrize("granularity", ["single", "cluster", "individual"])
    def test_no_command_needs_cluster(self, tmp_path, granularity):
        with_cluster, with_out = self.config(tmp_path / "with", granularity=granularity)
        without, out = self.config(tmp_path / "without", granularity=granularity)
        run(with_cluster, "gen", "cluster", *TIER_COMMANDS)
        run(without, "gen", *TIER_COMMANDS)
        assert tier_outputs(out, *TIER_COMMANDS) == tier_outputs(with_out, *TIER_COMMANDS)
        assert not (out / "clusters.csv").exists()

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """One clean run for the whole table, and each broken row's clusters.csv:
        (output dir, edit -> the file's bytes, or None for a directory)."""
        root = tmp_path_factory.mktemp("clusters")
        cfg_path, out = self.config(root / "clean", **CLEAN)
        run(cfg_path, "gen", "cluster", *TIER_COMMANDS)
        # what `cluster` wrote for the same dealer ids in an eight-dealer market, and
        # for the same histories under another split
        market_path, stale_market = self.config(root / "market", **CLEAN, periodic_dealers=5,
                                                top_dealers=8)
        run(market_path, "gen", "cluster")
        split_path, stale_split = self.config(root / "split", **{**CLEAN, "train_fraction": 0.8})
        stale_split.mkdir()
        shutil.copy(out / "histories.bin", stale_split)
        run(split_path, "cluster")
        tiers = (out / "clusters.csv").read_bytes()
        return out, {"garbage": b"\xff\x00 not a csv\r\n",
                     "label-7": tiers.replace(b",0\r\n", b",7\r\n"), "directory": None,
                     "stale-market": (stale_market / "clusters.csv").read_bytes(),
                     "stale-split": (stale_split / "clusters.csv").read_bytes()}

    @pytest.mark.parametrize("commands", [("compare",), ("train", "eval")],
                             ids=["compare", "train_eval"])
    @pytest.mark.parametrize("edit", ["garbage", "label-7", "directory", "stale-market",
                                      "stale-split"])
    def test_a_broken_clusters_file_changes_no_output(self, tmp_path, clean, edit, commands):
        clean_out, broken = clean
        cfg_path, out = write_config(tmp_path, **CLEAN)
        out.mkdir()
        shutil.copy(clean_out / "histories.bin", out)
        if broken[edit] is None:
            (out / "clusters.csv").mkdir()
        else:
            assert broken[edit] != (clean_out / "clusters.csv").read_bytes()
            (out / "clusters.csv").write_bytes(broken[edit])
        run(cfg_path, *commands)
        assert tier_outputs(out, *commands) == tier_outputs(clean_out, *commands)

    @pytest.mark.parametrize("fraction", ["0.5", "0.8"])
    def test_cluster_writes_the_tiers_the_commands_derive(self, tmp_path, fraction):
        cfg_path, out = write_config(tmp_path, seed=4, train_fraction=fraction)
        run(cfg_path, "gen", "cluster")
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
        cfg = parse_config(non_default_ini(tmp_path, "train_fraction", "seed"))
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


def v3_payload(model):
    """``model``'s parameters as version 3 stored them, with a key bias after
    each attention block's wk."""
    parts = []
    for name in model.params.names():
        parts.append(model.params[name].values)
        if name.endswith(".wk"):
            parts.append(np.zeros(model.params[name].shape[1]))
    return b"".join(part.astype("<f8").tobytes() for part in parts)


def nested_config(manifest, version):
    """Versions 4 and 5 nested the model config under "config"; version 4 did
    not record the train_fraction a checkpoint trained under, and neither
    recorded the histories."""
    config = {key.name: manifest[key.name] for key in fields(ModelConfig)}
    if version == 5:
        config["train_fraction"] = manifest["train_fraction"]
    return {"magic": manifest["magic"], "version": version, "config": config}


# every retired checkpoint format: the rewrite of a fresh checkpoint's (manifest,
# payload, loaded model) into that format's manifest and payload; a payload of the
# current length is the current one, since the version is checked before the payload
RETIRED_CHECKPOINTS = {
    # version 1 listed each tensor's name, shape and offset under "entries"
    "no-magic": lambda manifest, payload, model: ({"entries": []}, payload),
    "v1": lambda manifest, payload, model: ({**manifest, "version": 1, "entries": []}, payload),
    # version 2 stored each LSTM direction gate by gate, in as many bytes
    "v2": lambda manifest, payload, model: ({**manifest, "version": 2}, payload),
    "v3": lambda manifest, payload, model: ({**manifest, "version": 3}, v3_payload(model)),
    **{f"v{version}": lambda manifest, payload, model, version=version: (
        nested_config(manifest, version), payload) for version in (4, 5)},
    # version 6 did not record the training settings
    "v6": lambda manifest, payload, model: (
        {**{key: value for key, value in manifest.items() if not key.startswith("train_")},
         "train_fraction": manifest["train_fraction"], "version": 6}, payload),
    # version 8 recorded the patience early stop, null when unset
    "v8": lambda manifest, payload, model: (
        {**manifest, "train_patience": None, "version": 8}, payload),
}


class TestCheckpointConfig:
    @pytest.mark.parametrize("trained, scored, message", [
        # parameter shapes do not depend on heads, so only the manifest's
        # config tells the two apart
        ({"kind": "TransRE", "heads": 4}, {"kind": "TransRE"}, "heads = 4, expected 2"),
        # at 0.5 the test split would hold windows the checkpoint trained on at 0.8
        ({}, {"train_fraction": 0.5}, "train_fraction = 0.8, expected 0.5"),
        # at stride 1 the split holds windows that a stride-2 checkpoint never saw
        ({}, {"stride": 1}, "stride = 2, expected 1"),
        # a 1-epoch checkpoint must not be scored as the 3-epoch model the config names
        ({}, {"epochs": 3}, "train_epochs = 1, expected 3"),
        ({}, {"batch_size": 4}, "train_batch_size = 8, expected 4"),
        ({}, {"learning_rate": 0.5}, "train_learning_rate = 0.005, expected 0.5"),
    ], ids=["heads", "train_fraction", "stride", "epochs", "batch_size", "learning_rate"])
    def test_checkpoint_under_other_settings_exits_2(self, tmp_path, capsys, trained, scored,
                                                     message):
        cfg_path, out = write_config(tmp_path, **trained)
        run(cfg_path, "gen", "train")
        echo = (out / "config.resolved.ini").read_bytes()
        cfg_path, _ = write_config(tmp_path, **scored)
        refused(capsys, 2, "eval", cfg_path, "unreadable artifact",
                f"checkpoint_single.ckpt: {message}")
        assert not (out / "report.csv").exists() and not (out / "report_dealers.csv").exists()
        # the echo still names the config the directory's artifacts were made under
        assert (out / "config.resolved.ini").read_bytes() == echo

    def test_checkpoint_of_other_histories_exits_2(self, tmp_path, capsys):
        # another market of the same bonds: the model config cannot tell the
        # histories apart, so only the digest the checkpoint pins does
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen", "cluster", "train")
        path = out / "checkpoint_single.ckpt"
        trained = trained_on(parse_config(cfg_path), out)["histories_sha256"]
        cfg_path, _ = write_config(tmp_path, dense_rate=3.0, periodic_max_bonds=2)
        run(cfg_path, "gen")
        assert market.load_histories(out / "histories.bin")[2] == 6
        current = trained_on(parse_config(cfg_path), out)["histories_sha256"]
        assert current != trained
        echo, listing = (out / "config.resolved.ini").read_bytes(), sorted(os.listdir(out))
        # under another eval_mode too, which no checkpoint pins, so that an echo written
        # before the command ran would not be the one gen wrote
        cfg_path, _ = write_config(tmp_path, dense_rate=3.0, periodic_max_bonds=2,
                                   eval_mode="union")
        refused(capsys, 2, "eval", cfg_path, "unreadable artifact",
                f"{path}: histories_sha256 = '{trained}', expected '{current}'")
        assert sorted(os.listdir(out)) == listing
        assert (out / "config.resolved.ini").read_bytes() == echo
        # clusters.csv names the digest the checkpoint pins
        first = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()[0]
        manifest = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert first == f"histories_sha256,{trained}" and manifest["histories_sha256"] == trained

    def test_manifest_config_cannot_drive_memory_use(self, tmp_path, capsys):
        # a short manifest asking for a large vocabulary, with no payload
        cfg_path, out = write_config(tmp_path, kind="TransFV")
        run(cfg_path, "gen", "cluster")
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
        refused(capsys, 2, "eval", cfg_path, "unreadable artifact",
                f"vocab_size = 20000, expected {vocab_size}")

    @pytest.mark.parametrize("edit, message", CHECKPOINT_DEFECTS.values(), ids=CHECKPOINT_DEFECTS)
    def test_a_defective_checkpoint_exits_2(self, tmp_path, capsys, edit, message):
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen", "train")
        path = out / "checkpoint_single.ckpt"
        path.write_bytes(edit(path.read_bytes()))
        refused(capsys, 2, "eval", cfg_path, f"otcforecast: unreadable artifact {path}: {message}")
        assert not (out / "report.csv").exists()

    def test_overflowing_checkpoint_exits_3(self, tmp_path, capsys):
        # finite parameters whose forecasts overflow
        cfg_path, out = write_config(tmp_path, kind="TransFV")
        run(cfg_path, "gen", "train")
        path = out / "checkpoint_single.ckpt"
        path.write_bytes(payload_edit(lambda values: values.fill(1e300))(path.read_bytes()))
        err = refused(capsys, 3, "eval", cfg_path, "non-finite forecast")
        assert err.startswith("otcforecast: numeric failure:")
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("fmt", RETIRED_CHECKPOINTS)
    def test_retired_checkpoint_exits_2(self, tmp_path, capsys, fmt):
        cfg_path, out = write_config(tmp_path)
        run(cfg_path, "gen", "train")
        path = out / "checkpoint_single.ckpt"
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest, payload = RETIRED_CHECKPOINTS[fmt](json.loads(header), payload,
                                                     load_trained(cfg_path, out))
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + payload)
        # a manifest with the magic is refused on its version
        expected = (f"version = {manifest['version']}, expected {CHECKPOINT_VERSION}"
                    if "magic" in manifest else "magic = None, expected 'otcforecast-checkpoint'")
        refused(capsys, 2, "eval", cfg_path, "unreadable artifact", expected)
