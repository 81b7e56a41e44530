"""The mutant table: defects that the tests must catch, and the run that shows they do.

Each row of :data:`MUTANTS` is one defect: a file under ``src/otcforecast/``,
one exact substring of it, its replacement, and the test IDs that must fail
once the substring is replaced.  Run as a script, this module copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory per
mutant, applies the one replacement there, runs only the named tests
against the copy, and prints each mutant as killed or survived:

    python tests/mutants.py

A mutant is killed when at least one of its tests fails and none passes.
A skipped test kills nothing: the golden digests skip on any BLAS core
other than the one they were written under, so a mutant that they catch
names a test that runs everywhere as well.  A mutant that no test catches
stays in the table with ``found`` set to the ``FOUND`` line that records
it; it is reported, and it does not fail the run.  The run exits 1 if an
unmarked mutant survives.  ``tests/test_pytest_config.py`` checks that every
substring occurs exactly once in its file and that every named test is
collected, so the table fails loudly when the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600  # seconds for one mutant's tests


class Mutant(NamedTuple):
    what: str  # the defect, in a few words
    file: str  # under src/otcforecast/
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node IDs, each of which must fail
    found: str | None = None  # the FOUND line of a mutant that no test kills


A, M, B = "tests/test_autodiff.py::", "tests/test_models.py::", "tests/test_batching.py::"
H, K, C = "tests/test_harness.py::", "tests/test_market.py::", "tests/test_cli.py::"
CL = "tests/test_clustering.py::"
FD = A + "test_gradient_against_finite_differences"
ADAM, TRAIN, EVAL = A + "TestAdam::", H + "TestTrain::", H + "TestEvaluate::"
LAYOUT = M + "TestParameterLayout::test_names_shapes_and_initial_values_are_pinned"
MANIFEST = M + "TestCheckpoints::"
STEP_LOOP = A + "TestFusedLstm::test_output_and_gradients_match_the_step_loop_bit_for_bit"
ROUND_TRIP = C + "TestParseConfig::test_every_setting_round_trips_and_names_its_constraint"
SPEC = C + "TestSpecsFromConfig::test_spec_refuses_what_the_config_refuses"
HISTORIES = (K + "TestFileFormats::test_a_defective_histories_file_rejected",
             C + "TestPipeline::test_a_defective_histories_file_exits_2")
CHECKPOINTS = (M + "TestCheckpoints::test_a_defective_checkpoint_rejected",
               C + "TestCheckpointConfig::test_a_defective_checkpoint_exits_2")

MUTANTS = [
    # the oracle families: finite differences and the kept reference composites
    Mutant("tanh vjp sign", "autodiff.py",
           "return g * (1.0 - out * out)", "return g * (1.0 + out * out)",
           (f"{FD}[tanh-sigmoid]", f"{FD}[squash]")),
    Mutant("sigmoid vjp sign", "autodiff.py",
           "lambda g: (g * out * (1.0 - out),)", "lambda g: (g * out * (1.0 + out),)",
           (f"{FD}[tanh-sigmoid]", f"{STEP_LOOP}[1-1-lead0]")),
    Mutant("layer_norm vjp sign", "autodiff.py",
           "            - xhat * (np.add.reduce(dxhat * xhat",
           "            + xhat * (np.add.reduce(dxhat * xhat",
           (f"{FD}[layer_norm]", f"{FD}[residual_norm]",
            A + "TestHotPathHelpers::test_layer_norm_and_its_vjp_match_mean_and_var")),
    Mutant("softmax vjp sign", "autodiff.py",
           "return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))",
           "return y * (g + np.add.reduce(g * y, axis=-1, keepdims=True))",
           (f"{FD}[softmax]", f"{FD}[softmax-causal]",
            A + "TestHotPathHelpers::test_softmax_and_its_vjp_match_sum")),
    Mutant("attention score gradient sign", "autodiff.py",
           "dscores = _softmax_vjp(probs, dprobs) * c",
           "dscores = _softmax_vjp(probs, dprobs) * -c",
           (f"{FD}[attention-causal]", f"{FD}[attention-cross]")),
    Mutant("transpose vjp by the forward axes", "autodiff.py",
           "lambda g: (g.transpose(inverse),)", "lambda g: (g.transpose(axes),)",
           (f"{FD}[structural-batched]",
            A + "TestKeyBias::test_random_key_bias_changes_nothing[True]")),
    Mutant("lstm cell carry sign", "autodiff.py",
           "dc = dc if carry is None else carry + dc", "dc = dc if carry is None else carry - dc",
           (f"{FD}[lstm]", f"{STEP_LOOP}[1-2-lead0]")),
    Mutant("mse vjp without its factor 2", "autodiff.py",
           "lambda g: (g.item() * 2.0 * diff / n,", "lambda g: (g.item() * diff / n,",
           (f"{FD}[mse_loss]", A + "test_gradient_by_hand[mse]")),
    Mutant("start row gradient of the first window only", "autodiff.py",
           "np.add.reduce(g[..., 0, :].reshape(-1, pe.shape[1]), axis=0)))",
           "g[..., 0, :].reshape(-1, pe.shape[1])[0]))",
           (f"{FD}[positioned-start_only]", f"{FD}[positioned-start_and_rows]")),
    Mutant("causal mask one column late", "autodiff.py",
           "mask = np.triu(np.ones((n, n), dtype=bool), k=1)",
           "mask = np.triu(np.ones((n, n), dtype=bool), k=2)",
           (A + "TestSoftmaxAndAttention::test_causal_mask_zeroes_future[shape0]",
            M + "TestTransformer::test_causality_exact")),
    # backward's gradient vector, as first checked by hand when it came in
    Mutant("a leaf's later contribution assigned", "autodiff.py",
           "leaves[key] += contribution", "leaves[key] = contribution",
           (A + "test_gradient_by_hand[shared-intermediate]",
            A + "TestBackwardOut::test_out_holds_the_bytes_of_the_per_leaf_gradients[TransPPRZ]")),
    Mutant("an unreached leaf's out array left as it was", "autodiff.py",
           "        grad[...] = 0.0", "        pass",
           (A + "TestBackwardSemantics::test_unreached_leaf_gets_zeros",
            A + "TestBackwardOut::test_an_unreached_leaf_reads_zeros_over_nan")),
    Mutant("out arrays unchecked", "autodiff.py",
           '        raise ContractError(f"backward() needs {len(wrt)} float64 out arrays of the'
           " leaves' shapes\")", "        pass",
           (A + "TestBackwardOut::test_a_bad_out_is_refused_before_any_vjp_runs[short]",
            A + "TestBackwardOut::test_a_bad_out_is_refused_before_any_vjp_runs[float32]")),
    Mutant("epochs keeps the step's tape through Adam", "harness.py",
           "ad.reset_tape()  # frees the step's activations before the check and Adam", "pass",
           (f"{TRAIN}test_the_tape_is_empty_whenever_adam_runs[FCSum]",)),
    # Adam's pass order and blocks: the golden file and the Adam references
    Mutant("Adam multiplies by lr before dividing by bias1", "autodiff.py",
           "np.divide(m, bias1, out=t)\n        t *= state.learning_rate",
           "np.multiply(m, state.learning_rate, out=t)\n        t /= bias1",
           (f"{ADAM}test_blocks_change_no_bit[15000]",
            f"{TRAIN}test_flat_adam_matches_per_tensor_reference[FCSum]")),
    Mutant("Adam scratch of parameter length", "autodiff.py",
           "np.empty(min(values.size, ADAM_BLOCK), values.dtype)",
           "np.empty(values.size, values.dtype)",
           (f"{ADAM}test_blocks_change_no_bit[45007]",
            f"{ADAM}test_the_first_step_allocates_the_moments_and_one_block")),
    Mutant("Adam drops the last element's block", "autodiff.py",
           "for lo in range(0, values.size, ADAM_BLOCK):",
           "for lo in range(0, values.size - 1, ADAM_BLOCK):",
           (f"{ADAM}test_first_step[first_step_is_minus_lr]",
            f"{ADAM}test_blocks_change_no_bit[15001]")),
    Mutant("Adam allocates a fresh scratch per block", "autodiff.py",
           "t = state.scratch[:g.size]", "t = np.empty(g.size)",
           (f"{ADAM}test_the_first_step_allocates_the_moments_and_one_block",)),
    # the brute-force recounts of evaluate
    Mutant("evaluate counts probs > threshold", "harness.py",
           "probs >= threshold", "probs > threshold",
           (f"{EVAL}test_counts_recount_every_window_and_day",)),
    Mutant("true negatives keep the false negatives", "harness.py",
           "t.shape[-1] - tp - fp - fn", "t.shape[-1] - tp - fp",
           (f"{EVAL}test_counts_recount_every_window_and_day", f"{EVAL}test_hand_counts[formula]")),
    Mutant("union mode takes the minimum over days", "harness.py",
           "probs, target = probs.max(axis=-2, keepdims=True), target.max(axis=-2, keepdims=True)",
           "probs, target = probs.min(axis=-2, keepdims=True), target.max(axis=-2, keepdims=True)",
           (f"{EVAL}test_hand_counts[union]",)),
    Mutant("f1 without its factor 2", "harness.py",
           "f1 = 2.0 * precision * recall", "f1 = precision * recall",
           (H + "TestMicroPrf::test_hand_values[formula]",)),
    Mutant("interleaved dealers scored", "harness.py",
           "if len(starts) != len(set(ids)):", "if False:",
           (H + "TestScoreUnits::test_interleaved_dealers_rejected_before_scoring[order0]",)),
    Mutant("epoch loss sums the batch means", "harness.py",
           "batch_loss = loss.item() * len(inputs)", "batch_loss = loss.item()",
           (f"{TRAIN}test_epoch_loss_is_the_mean_per_sample_loss",)),
    Mutant("every epoch reuses the first epoch's shuffle", "harness.py",
           'rng_for(spec.seed, "shuffle", epoch)', 'rng_for(spec.seed, "shuffle", 0)',
           (f"{TRAIN}test_flat_adam_matches_per_tensor_reference[FCSum]",
            "tests/test_golden.py::test_counts_losses_and_projections_match")),
    # the reference loops of the market
    Mutant("a cancellation keeps the record it voids", "market.py",
           "voided.update((i, ref))", "voided.add(i)",
           (K + "TestFilters::test_cancellation_removes_both",
            K + "TestCleaningProperties::test_cleaning_is_the_brute_force_loop")),
    Mutant("a cancellation names the record before its target", "market.py",
           "ref_record=len(out) - 1", "ref_record=len(out) - 2",
           (K + "TestGenerator::test_cancellations_reference_prior_records",
            K + "TestGeneratorProperties::test_generator_is_the_reference_loop")),
    Mutant("windowize drops the last start", "market.py",
           "range(0, block.shape[0] - t_in - t_out + 1, stride)",
           "range(0, block.shape[0] - t_in - t_out, stride)",
           (K + "TestWindowing::test_window_starts[count]",
            K + "TestWindowing::test_window_starts[boundary]")),
    Mutant("rank ties in insertion order", "market.py",
           "key=lambda k: (-counts[k], k))", "key=lambda k: -counts[k])",
           (K + "TestFilters::test_top_dealers_by_record_count[ties]",)),
    Mutant("sells in the buy columns", "market.py",
           "(0 if r.side == BUY else v)", "(v if r.side == BUY else 0)",
           (K + "TestHistories::test_each_trade_sets_its_cell[buy]",)),
    Mutant("trailing histories bytes accepted", "market.py",
           "if at != len(blob):", "if at > len(blob):",
           tuple(f"{test}[trailing-byte]" for test in HISTORIES)),
    # the split
    Mutant("split_boundary one day late", "market.py",
           "return int(math.floor(train_fraction * days))",
           "return int(math.floor(train_fraction * days)) + 1",
           ("tests/test_acceptance.py::test_c9_windowing_and_split_arithmetic",)),
    Mutant("a window ending on the boundary is not trained on", "market.py",
           "if s.start_day + window <= boundary:", "if s.start_day + window < boundary:",
           (K + "TestSplit::test_disjoint_and_leak_free",)),
    # the range checks of RunConfig, and the specs that refuse what the config refuses
    Mutant("train_fraction may be 1", "config.py",
           '_OPEN_RATE = ("a float in (0, 1)", lambda v: 0.0 < v < 1.0)',
           '_OPEN_RATE = ("a float in (0, 1)", lambda v: 0.0 < v <= 1.0)',
           (f"{ROUND_TRIP}[train_fraction]",)),
    Mutant("epochs unchecked", "config.py",
           'epochs: int = _setting("train", TrainSpec.epochs, _AT_LEAST_0)',
           'epochs: int = _setting("train", TrainSpec.epochs, ("an integer >= 0", None))',
           (f"{ROUND_TRIP}[epochs]", f"{SPEC}[epochs]")),
    # the checkpoint refusals
    Mutant("trained_on drops the stride", "cli.py",
           '                  "stride": cfg.stride,\n', "",
           (C + "TestCheckpointConfig::test_checkpoint_under_other_settings_exits_2[stride]",)),
    Mutant("an unknown manifest field accepted", "models.py",
           "    if unknown:", "    if False:",
           (f"{MANIFEST}test_bad_magic_version_or_config_rejected[edit5]",)),
    Mutant("a trailing payload accepted", "models.py",
           "if payload_bytes > expected:", "if payload_bytes > expected + 8:",
           tuple(f"{test}[trailing-byte]" for test in CHECKPOINTS)),
    # the models against their reference walks and pinned layouts
    Mutant("the decoder attends to its newest key only", "models.py",
           "cache[2] = np.concatenate([cache[2], kh], axis=-1)", "cache[2] = kh",
           (M + "TestTransformer::test_predict_matches_full_prefix_decoding[TransFV-windows]",
            B + "TestBatchedModels::test_predict_matches_per_window_predict[TransPPRZ]")),
    Mutant("cosine channels as sine", "models.py",
           "pe[:, 1::2] = np.cos(positions * freqs)", "pe[:, 1::2] = np.sin(positions * freqs)",
           (M + "TestPositionalEncoding::test_the_sinusoid_formula",)),
    Mutant("views accept a strided vector", "models.py",
           "if vector.shape != self.flat.shape or not vector.flags.c_contiguous:",
           "if vector.shape != self.flat.shape:",
           (M + "TestFlatParameters::test_views_refuse_a_vector_of_another_layout[strided]",)),
    Mutant("init bound 1/fan_in", "models.py",
           "bound = 1.0 / math.sqrt(fan_in)", "bound = 1.0 / fan_in",
           (f"{LAYOUT}[FCSum]", f"{LAYOUT}[LSTM]")),
    Mutant("the scalar gate of width d", "models.py",
           '() if self.residual_mode == "scalar" else d', "d",
           (M + "TestResidualSchemes::test_both_gates_run_one_op[TransRE-shape0]",
            M + "TestFlatParameters::test_scalar_gate_packs_as_a_0d_view")),
    Mutant("BiLSTM's backward direction reads the days forwards", "models.py",
           "zip((data, data[..., ::-1, :]), self._directions)",
           "zip((data, data), self._directions)",
           (M + "TestRecurrentModels::test_stacked_model_matches_per_gate_reference"
                "[window-BiLSTM]",)),
    Mutant("FCSum reads the first day only", "models.py",
           "x = Tensor(np.add.reduce(data, axis=-2))", "x = Tensor(data[..., 0, :])",
           (M + "TestFCModels::test_only_the_sum_forgets_the_order_of_the_days[FCSum]",)),
    Mutant("bool days counted in bool", "models.py",
           "np.add(days[..., :v], days[..., v:], dtype=counts.dtype)",
           "np.add(days[..., :v], days[..., v:])",
           (M + "TestTransformer::test_embedding_reads_uint8_bool_and_float64_days_alike"
                "[TransPPRZ]",)),
    # the commands
    Mutant("tiers from every day", "cli.py",
           "compute_dealer_features(histories, market.split_boundary(days, cfg.train_fraction))",
           "compute_dealer_features(histories, days)",
           (C + "TestTiers::test_the_test_days_move_no_dealer[0.25]",
            C + "TestClustersFile::test_compare_uses_the_tiers_of_its_own_split[single]")),
    Mutant("a numeric failure exits 2", "cli.py",
           "return _fail(3, ", "return _fail(2, ",
           (C + "TestPipeline::test_numeric_blowup_exits_3",)),
    Mutant("a failure line keeps its newlines", "cli.py",
           '.replace("\\n", "\\\\n")', "",
           (C + "TestParseConfig::test_refused_file_named_in_error[key-before-section]",
            C + "TestParseConfig::test_refused_file_named_in_error[unclosed-header]",
            C + "TestParseConfig::test_refused_file_named_in_error[keys-without-values]",
            C + "TestPipeline::test_a_command_before_its_input_exits_2"
                "[eval_before_gen_in_a_multi_line_dir]")),
    Mutant("a usage error prints the usage line first", "cli.py",
           "        raise SystemExit(_fail(1, ",
           "        self.print_usage(sys.stderr)\n        raise SystemExit(_fail(1, ",
           (C + "TestPipeline::test_console_script_is_the_cli_main[unknown_command]",
            C + "TestPipeline::test_console_script_is_the_cli_main[no_command]")),
    Mutant("a failed train keeps the unit's stale checkpoint", "cli.py",
           "        _checkpoint_path(out, tag).unlink(missing_ok=True)\n", "",
           (C + "TestPipeline::test_train_with_a_non_finite_layer_statistic_exits_3[retrained]",)),
    # clustering
    Mutant("tiers ordered by distinct bonds first", "clustering.py",
           "return (total, distinct, label)", "return (distinct, total, label)",
           (CL + "TestOrderClusters::test_ordering_contract_on_random_data",)),
    Mutant("an empty cluster not repaired", "clustering.py",
           "if dist2[far, biggest] > 0.0:", "if False:",
           (CL + "TestKMeans::test_an_empty_cluster_takes_the_farthest_point",)),
    Mutant("the active fraction over the whole calendar", "clustering.py",
           "active_days / boundary", "active_days / h.day_vectors.shape[0]",
           (CL + "TestDealerFeatures::test_features_equal_a_cell_recount",)),
    # the refusals and references that the shrink of the tests folded into tables
    Mutant("matmul multiplies operands whose inner extents differ", "autodiff.py",
           "if av.ndim < 1 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:",
           "if av.ndim < 1 or bv.ndim < 2:",
           (A + "test_shape_error[matmul]",)),
    Mutant("mse gradient of the target with the prediction's sign", "autodiff.py",
           "g.item() * (-2.0) * diff / n if target.requires_grad else None",
           "g.item() * 2.0 * diff / n if target.requires_grad else None",
           (f"{FD}[mse_loss]",)),
    Mutant("evaluate scores an unknown mode", "harness.py",
           "if mode not in EVAL_MODES:", "if False:",
           (f"{EVAL}test_refused[unknown_mode]",)),
    Mutant("evaluate takes an empty test set", "harness.py",
           "if not test_samples:", "if False:",
           (f"{EVAL}test_refused[no_windows]",)),
    Mutant("save_histories writes a repeated id", "market.py",
           "if first_index.setdefault(h.dealer_id, i) != i:", "if False:",
           (K + "TestFileFormats::test_save_histories_checks_every_dealer_before_opening"
                "[repeated_id]",)),
    Mutant("windows are writable views", "market.py",
           "block.flags.writeable = False", "block.flags.writeable = True",
           (K + "TestWindowing::test_windows_are_read_only_views_of_their_days",)),
    Mutant("distinct bonds counted per side", "clustering.py",
           "bond_hit = window[:, :v] | window[:, v:]", "bond_hit = window",
           (CL + "TestDealerFeatures::test_hand_features[one_bond_bought_and_sold]",)),
    Mutant("a transformer of any kind", "models.py",
           "if config.kind not in _TRANSFORMER_MODES:", "if False:",
           (M + "TestBuildContracts::test_refused[transformer_of_FCSum]",)),
    Mutant("positions of an odd width", "models.py",
           "if d_model % 2 != 0:", "if False:",
           (M + "TestPositionalEncoding::test_odd_width_rejected",)),
    Mutant("a repeated parameter name", "models.py",
           "if name in self.tensors:", "if False:",
           (M + "TestFlatParameters::test_duplicate_name_rejected_at_build",)),
    # the refused settings and histories.bin files, each stated once for both layers
    Mutant("a market of no day", "market.py",
           '("days", 1), ("bonds", 0)', '("days", 0), ("bonds", 0)', (f"{SPEC}[days]",)),
    Mutant("a learning rate of 0", "harness.py",
           "if not self.learning_rate > 0:", "if not self.learning_rate >= 0:",
           (f"{SPEC}[learning_rate]",)),
    Mutant("model sizes of 0", "models.py",
           "if getattr(self, name) < 1:", "if getattr(self, name) < 0:",
           (f"{SPEC}[t_in]", f"{SPEC}[d_model]", f"{SPEC}[hidden]")),
    Mutant("an empty dealer id read", "market.py",
           "if not dealer_id:", "if False:", tuple(f"{test}[empty-id]" for test in HISTORIES)),
    Mutant("a repeated dealer id read", "market.py",
           "if dealer_id in first_index:", "if False:",
           tuple(f"{test}[repeated-id]" for test in HISTORIES)),
    Mutant("histories of no dealer, day or bond read", "market.py",
           "if min(count, days, vocab_size) < 1:", "if min(count, days, vocab_size) < 0:",
           (*(f"{test}[no-dealer]" for test in HISTORIES), f"{HISTORIES[0]}[no-day]",
            f"{HISTORIES[0]}[no-bond]")),
    Mutant("a failure line keeps its backslashes", "cli.py",
           '.replace("\\\\", "\\\\\\\\")', "",
           (C + "TestPipeline::test_a_command_before_its_input_exits_2"
                "[eval_before_gen_in_a_dir_with_a_backslash]",)),
    Mutant("a missing artifact read anyway", "cli.py",
           "    if not path.exists():\n        raise MissingArtifactError(",
           "    if False:\n        raise MissingArtifactError(",
           (C + "TestPipeline::test_a_command_before_its_input_exits_2[cluster_before_gen]",
            C + "TestPipeline::test_a_command_before_its_input_exits_2[eval_before_train]")),
]


def copy_checkout(dest: Path) -> None:
    """Copy the files a test run reads into ``dest``, without bytecode or caches."""
    dest.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest_command(tests) -> list[str]:
    """The pytest command the runner starts in a copy, for the node IDs ``tests``:
    one line per passed, failed or erroring test, and no cache."""
    return [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfEp", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]


def run_env(copy: Path) -> dict:
    """The environment of a run in ``copy``: its package first, and no bytecode written."""
    return {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONIOENCODING": "utf-8"}


def run_tests(tests, mutant: Mutant | None = None) -> tuple[set, set]:
    """(passed, failed) among the node IDs ``tests``, run in a fresh copy of the
    checkout with ``mutant`` applied, if any; a test that errors counts as failed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp, "checkout")
        copy_checkout(copy)
        if mutant is not None:
            path = copy / "src" / "otcforecast" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.what}: the substring occurs {text.count(mutant.old)} "
                                 f"times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = subprocess.run(pytest_command(tests), cwd=copy, env=run_env(copy),
                             capture_output=True, text=True, encoding="utf-8", timeout=TIMEOUT)
    lines = run.stdout.splitlines()

    def reported(*verdicts):
        return {t for t in tests for verdict in verdicts for line in lines
                if line == f"{verdict} {t}" or line.startswith(f"{verdict} {t} - ")}
    return reported("PASSED"), reported("FAILED", "ERROR")


def main() -> int:
    started, survivors = time.monotonic(), 0
    # a named test that fails without any mutant shows nothing: it reads a file
    # the copy lacks, or the checkout is broken
    named = sorted({t for mutant in MUTANTS for t in mutant.tests})
    _, broken = run_tests(named)
    if broken:
        print("named tests that fail on the unmutated copy:", *sorted(broken), sep="\n  ")
        return 1
    for number, mutant in enumerate(MUTANTS, 1):
        passed, failed = run_tests(mutant.tests, mutant)
        killed = bool(failed) and not passed
        how = (f"passed: {', '.join(sorted(passed))}" if passed
               else f"{len(failed)} of {len(mutant.tests)} failed" if failed
               else "no named test ran")
        verdict = "killed" if killed else "SURVIVED" if mutant.found is None else "survived"
        print(f"{number:3d} {verdict:8s} {mutant.file}: {mutant.what} ({how})", flush=True)
        if mutant.found is not None:
            print(f"             known: {mutant.found}", flush=True)
        survivors += not killed and mutant.found is None
    print(f"{len(MUTANTS)} mutants, {survivors} unmarked survivors, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
