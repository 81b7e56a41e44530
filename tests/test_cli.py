"""Config parsing and end-to-end command-line pipeline tests."""

import warnings

import numpy as np
import pytest

from otcforecast import market
from otcforecast.cli import main
from otcforecast.clustering import load_assignment
from otcforecast.config import parse_config, write_resolved
from otcforecast.errors import ConfigurationError
from otcforecast.harness import run_granularity_experiment, write_reports
from otcforecast.models import MODEL_KINDS

TINY_CONFIG = """\
[market]
days = 30
bonds = 6
periodic_dealers = 3
sparse_dealers = 2
dense_dealers = 1
periodic_min_period = 2
periodic_max_period = 4
periodic_min_bonds = 1
periodic_max_bonds = 3
dense_rate = 2.0
dense_min_bonds = 3
dense_max_bonds = 6
cancellation_rate = 0.05

[filters]
top_dealers = 6
top_bonds = 6

[window]
t_in = 3
t_out = 2
stride = 2

[split]
train_fraction = 0.8

[model]
kind = TransPPRZ
d_model = 8
heads = 2
n_layers = 1
d_ff = 8
hidden = 8

[train]
epochs = 1
batch_size = 8
learning_rate = 0.005

[run]
seed = 3
granularity = single
output_dir = {out}
probe_samples = 8
"""


def write_config(tmp_path, text=None, **format_args):
    path = tmp_path / "run.ini"
    out = format_args.pop("out", tmp_path / "artifacts")
    path.write_text((text or TINY_CONFIG).format(out=out, **format_args))
    return path, out


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
        src, _ = write_config(tmp_path)
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

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[window]\nt_inn = 3\n")
        assert self.run("gen", "-c", str(path)) == 1
        assert "t_inn" in capsys.readouterr().err

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
        labels = load_assignment(out / "clusters.csv")
        with warnings.catch_warnings(record=True) as lib_warnings:
            warnings.simplefilter("always")
            rows = [
                row
                for kind in MODEL_KINDS
                for row in run_granularity_experiment(
                    cfg.model_config(vocab_size, kind), train_s, test_s, labels,
                    cfg.train_spec(), ("cluster",), cfg.eval_mode)
            ]
        write_reports(tmp_path / "library.csv", rows)
        assert (tmp_path / "library.csv").read_bytes() == (out / "compare_report.csv").read_bytes()
        assert [str(w.message) for w in cli_warnings] == [str(w.message) for w in lib_warnings]

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

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_empty_test_split_exits_1_before_training(self, tmp_path, capsys, command):
        # days 30, t_in 3, t_out 2 and train_fraction 0.9: boundary day 27
        # leaves no room for a 5-day window after it
        cfg_path, out = write_config(
            tmp_path, text=TINY_CONFIG.replace("train_fraction = 0.8", "train_fraction = 0.9"))
        for step in ("gen", "cluster"):
            assert self.run(step, "-c", str(cfg_path)) == 0, step
        capsys.readouterr()
        assert self.run(command, "-c", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("otcforecast: config error:")
        for key in ("no test window", "days 30", "t_in 3", "t_out 2", "train_fraction 0.9"):
            assert key in err, key
        assert not list(out.glob("compare_*.csv")) and not (out / "report.csv").exists()

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


def truncate(path, cut):
    """Keep the first ``cut`` bytes of a file: a byte count, a fraction of
    its length, or -1 for all but the last byte."""
    blob = path.read_bytes()
    keep = len(blob) - 1 if cut == -1 else int(cut * len(blob)) if isinstance(cut, float) else cut
    path.write_bytes(blob[:keep])
