"""Model-zoo contracts: construction, embeddings, residual schemes,
causality, and checkpoint round-trips."""

import hashlib
import json
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otcforecast.autodiff as ad
from otcforecast import models
from otcforecast.autodiff import Tensor
from otcforecast.errors import ArtifactError, ConfigurationError, ContractError, ShapeMismatchError
from otcforecast.models import (
    MODEL_KINDS,
    TRANSFORMER_KINDS,
    MANIFEST_LIMIT,
    ModelConfig,
    Parameters,
    _Builder,
    build_model,
    check_checkpoint,
    load_checkpoint,
    positional_encoding,
    save_checkpoint,
)
from otcforecast.seeding import rng_for

from helpers import random_day_matrix, squash_composite, sum_all


def toy_config(kind, **overrides):
    base = dict(kind=kind, vocab_size=8, t_in=3, t_out=2,
                d_model=4, heads=2, n_layers=1, d_ff=8, hidden=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuildContracts:
    def test_pprz_gate_count_and_init(self):
        model = build_model(toy_config("TransPPRZ", n_layers=2))
        gates = [n for n in model.params.names() if n.endswith(".gate")]
        assert len(gates) == 4  # 2 encoder + 2 decoder layers
        for name in gates:
            tensor = model.params[name]
            assert tensor.shape == (4,)
            assert np.array_equal(tensor.values, np.zeros(4))

    def test_rezero_gates_are_scalars(self):
        model = build_model(toy_config("TransRE", n_layers=2))
        gates = [n for n in model.params.names() if n.endswith(".gate")]
        assert len(gates) == 4
        assert all(model.params[n].shape == () for n in gates)
        assert all(model.params[n].values == 0.0 for n in gates)

    def test_re_vs_pprz_name_set_diff(self):
        re_names = set(build_model(toy_config("TransRE")).params.names())
        pprz_names = set(build_model(toy_config("TransPPRZ")).params.names())
        assert re_names - pprz_names == {"embed.w", "embed.b"}
        assert pprz_names - re_names == {"cte.bonds", "cte.actions"}

    def test_build_determinism(self):
        for kind in MODEL_KINDS:
            a = build_model(toy_config(kind, seed=42)).params
            b = build_model(toy_config(kind, seed=42)).params
            assert a.names() == b.names()
            np.testing.assert_array_equal(a.flat, b.flat)

    def test_param_count_is_config_pure(self):
        for kind in MODEL_KINDS:
            c1 = build_model(toy_config(kind, seed=1)).params.flat.size
            c2 = build_model(toy_config(kind, seed=99)).params.flat.size
            assert c1 == c2

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(kind="TransXXL", vocab_size=4, t_in=2, t_out=2)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            toy_config("TransFV", d_model=6, heads=4)

    @pytest.mark.parametrize("field", ["vocab_size", "t_in", "t_out", "d_model", "heads",
                                       "n_layers", "d_ff", "hidden"])
    def test_field_below_one_rejected(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1, got 0"):
            toy_config("LSTM", **{field: 0})

    def test_transformer_of_a_non_transformer_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="'FCSum' is not a transformer kind"):
            models.TransformerModel(toy_config("FCSum"))


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = positional_encoding(3, 6)
        np.testing.assert_array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_bounded(self):
        pe = positional_encoding(50, 16)
        assert (pe >= -1.0).all() and (pe <= 1.0).all()

    def test_formula_value(self):
        assert positional_encoding(2, 4)[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigurationError):
            positional_encoding(4, 5)


class TestFCModels:
    def test_sum_variant_permutation_invariant(self):
        model = build_model(toy_config("FCSum"))
        x = random_day_matrix(3, 8, 1)
        base = model.predict(x)
        for perm in ([2, 0, 1], [1, 2, 0]):
            np.testing.assert_array_equal(model.predict(x[perm]), base)

    def test_concat_variant_not_permutation_invariant(self):
        model = build_model(toy_config("FCConcat"))
        x = np.zeros((3, 16), dtype=np.uint8)
        x[0, 2] = 1  # witness: a trade on day 0 vs day 2
        swapped = x[[2, 1, 0]]
        assert not np.array_equal(model.predict(x), model.predict(swapped))

    def test_concat_first_layer_width(self):
        model = build_model(ModelConfig(kind="FCConcat", vocab_size=10, t_in=5,
                                        t_out=2, hidden=4, seed=0))
        assert model.params["fc.w1"].shape == (100, 4)

    def test_zero_network_outputs_half(self):
        model = build_model(toy_config("FCSum"))
        for t in model.params.tensors():
            t.values[...] = 0.0
        out = model.predict(np.zeros((3, 16), dtype=np.uint8))
        np.testing.assert_array_equal(out, np.full((2, 16), 0.5))

    def test_output_tiled_over_horizon(self):
        model = build_model(toy_config("FCConcat", t_out=4))
        out = model.predict(random_day_matrix(3, 8, 2))
        assert out.shape == (4, 16)
        assert all(np.array_equal(out[0], out[i]) for i in range(1, 4))

    def test_input_shape_validated(self):
        model = build_model(toy_config("FCSum"))
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((4, 16)))


class TestRecurrentModels:
    def test_zero_recurrence_fixed_point(self):
        model = build_model(toy_config("LSTM"))
        for t in model.params.tensors():
            t.values[...] = 0.0
        out = model.predict(np.zeros((3, 16), dtype=np.uint8))
        np.testing.assert_array_equal(out, np.full((2, 16), 0.5))

    def test_bilstm_readout_width(self):
        model = build_model(toy_config("BiLSTM", hidden=5))
        assert model.params["readout.w"].shape == (10, 16)

    def test_manual_two_step_recurrence_oracle(self):
        cfg = ModelConfig(kind="LSTM", vocab_size=1, t_in=2, t_out=1, hidden=1, seed=0)
        model = build_model(cfg)
        wx, wh, b = 0.3, -0.2, 0.1
        # every gate block of the stacked tensors gets the same value
        model.params["lstm.fwd.wx"].values[...] = wx
        model.params["lstm.fwd.wh"].values[...] = wh
        model.params["lstm.fwd.b"].values[...] = b
        model.params["readout.w"].values[...] = 1.0
        model.params["readout.b"].values[...] = 0.0
        x = np.array([[1.0, 0.0], [1.0, 1.0]])

        def sigm(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = c = 0.0
        for row in x:
            s = row.sum()
            i = sigm(wx * s + wh * h + b)
            f = sigm(wx * s + wh * h + b)
            g = np.tanh(wx * s + wh * h + b)
            o = sigm(wx * s + wh * h + b)
            c = f * c + i * g
            h = o * np.tanh(c)
        expected = (np.tanh(h * 1.0) + 1.0) / 2.0
        out = model.predict(x.astype(np.uint8))
        np.testing.assert_allclose(out, np.full((1, 2), expected), atol=1e-12)

    def test_stacked_layout_holds_the_per_gate_draws(self):
        # blocks drawn gate by gate, wx then wh, in i, f, g, o order
        width, hidden = 16, 4
        for kind, directions in (("LSTM", ("fwd",)), ("BiLSTM", ("fwd", "bwd"))):
            params = build_model(toy_config(kind, seed=7)).params
            rng = rng_for(7, "init", kind)
            names = [f"lstm.{d}.{w}" for d in directions for w in ("wx", "wh", "b")]
            assert params.names() == names + ["readout.w", "readout.b"]
            for direction in directions:
                wx, wh = params[f"lstm.{direction}.wx"], params[f"lstm.{direction}.wh"]
                assert wx.shape == (width, 4 * hidden) and wh.shape == (hidden, 4 * hidden)
                for k in range(4):
                    block = slice(k * hidden, (k + 1) * hidden)
                    for weight, rows in ((wx, width), (wh, hidden)):
                        bound = 1.0 / math.sqrt(rows)
                        np.testing.assert_array_equal(
                            weight.values[:, block],
                            rng.uniform(-bound, bound, size=(rows, hidden)))
                np.testing.assert_array_equal(params[f"lstm.{direction}.b"].values,
                                              np.zeros(4 * hidden))
            bound = 1.0 / math.sqrt(hidden * len(directions))
            np.testing.assert_array_equal(
                params["readout.w"].values,
                rng.uniform(-bound, bound, size=(hidden * len(directions), width)))

    @pytest.mark.parametrize("kind", ["LSTM", "BiLSTM"])
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["window", "batch"])
    def test_stacked_model_matches_per_gate_reference(self, kind, lead):
        model = build_model(toy_config(kind, seed=8))
        hidden = model.config.hidden
        flat = model.params.flat
        flat[:] = np.random.default_rng(9).normal(scale=0.5, size=flat.size)
        days = random_day_matrix(math.prod(lead) * 3, 8, 10).reshape(*lead, 3, 16)
        blocks = per_gate_weights(model)
        readout = [model.params["readout.w"], model.params["readout.b"]]
        stacked_out = model.forward(days)
        stacked = ad.backward(sum_all(ad.mul(stacked_out, stacked_out)),
                              model.params.tensors())
        ad.reset_tape()
        reference_out = per_gate_lstm(model, days, blocks)
        reference = ad.backward(sum_all(ad.mul(reference_out, reference_out)),
                                list(blocks.values()) + readout)
        assert stacked_out.shape == (*lead, 2, 16)
        np.testing.assert_allclose(stacked_out.values, reference_out.values, rtol=0, atol=1e-12)
        reference = dict(zip(list(blocks) + ["readout.w", "readout.b"], reference))
        for name, grad in zip(model.params.names(), stacked):
            if name.startswith("lstm."):
                _, direction, weight = name.split(".")
                for k, gate in enumerate("ifgo"):
                    np.testing.assert_allclose(
                        grad[..., k * hidden:(k + 1) * hidden],
                        reference[f"{direction}.{weight}_{gate}"],
                        rtol=0, atol=1e-12, err_msg=f"{name} block {gate}")
            else:
                np.testing.assert_allclose(grad, reference[name], rtol=0, atol=1e-12,
                                           err_msg=name)

    @pytest.mark.parametrize("kind, directions, linears", [("LSTM", 1, 2), ("BiLSTM", 2, 3)])
    def test_one_input_projection_per_window(self, monkeypatch, kind, directions, linears):
        # per direction: one input projection, then one lstm entry that runs
        # the recurrent products itself; plus the readout
        shapes = []
        linear = ad.linear
        monkeypatch.setattr(ad, "linear", lambda x, w, b: shapes.append(x.shape) or linear(x, w, b))
        for t_in in (3, 6):
            model = build_model(toy_config(kind, t_in=t_in))
            shapes.clear()
            ad.reset_tape()
            model.forward(random_day_matrix(2 * t_in, 8, 11).reshape(2, t_in, 16))
            assert len(shapes) == linears, shapes
            assert shapes.count((2, t_in, 16)) == directions
            assert [entry.name for entry in ad._TAPE].count("lstm") == directions

    @pytest.mark.parametrize("kind, entries", [("LSTM", 6), ("BiLSTM", 9)])
    def test_tape_entries_per_batch_do_not_grow_with_t_in(self, kind, entries):
        for t_in in (3, 5):
            ad.reset_tape()
            model = build_model(toy_config(kind, t_in=t_in))
            x = random_day_matrix(4 * t_in, 8, 12).reshape(4, t_in, 16)
            target = random_day_matrix(8, 8, 13).reshape(4, 2, 16).astype(np.float64)
            ad.mse_loss(model.forward(x), Tensor(target))
            assert ad.tape_size() == entries, t_in


def per_gate_weights(model):
    """Split each stacked LSTM tensor into its i, f, g, o gate blocks, as
    fresh leaves named '<dir>.wx_<gate>', '<dir>.wh_<gate>', '<dir>.b_<gate>'."""
    hidden = model.config.hidden
    blocks = {}
    for name in model.params.names():
        if name.startswith("lstm."):
            _, direction, weight = name.split(".")
            values = model.params[name].values
            for k, gate in enumerate("ifgo"):
                blocks[f"{direction}.{weight}_{gate}"] = Tensor(
                    values[..., k * hidden:(k + 1) * hidden], requires_grad=True)
    return blocks


def per_gate_lstm(model, days, blocks):
    """Reference recurrent forward: the per-gate LSTM step, eight matmuls a
    step, that the stacked layout replaced; the readout is the model's."""
    data = np.asarray(days, dtype=np.float64)
    hidden = model.config.hidden
    finals = []
    for direction in ("fwd", "bwd") if model.config.kind == "BiLSTM" else ("fwd",):
        seq = data if direction == "fwd" else data[..., ::-1, :]
        h = Tensor(np.zeros((*seq.shape[:-2], hidden)))
        c = Tensor(np.zeros((*seq.shape[:-2], hidden)))
        for step in range(seq.shape[-2]):
            x_t = Tensor(seq[..., step, :])
            pre = {}
            for gate in "ifgo":
                pre[gate] = ad.add_rowvec(
                    ad.add(ad.matmul(x_t, blocks[f"{direction}.wx_{gate}"]),
                           ad.matmul(h, blocks[f"{direction}.wh_{gate}"])),
                    blocks[f"{direction}.b_{gate}"],
                )
            i = ad.sigmoid(pre["i"])
            f = ad.sigmoid(pre["f"])
            g = ad.tanh(pre["g"])
            o = ad.sigmoid(pre["o"])
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        finals.append(h)
    h = ad.concat_cols(finals) if len(finals) > 1 else finals[0]
    p = model.params
    day = squash_composite(ad.add_rowvec(ad.matmul(h, p["readout.w"]), p["readout.b"]))
    return ad.tile_rows(day, model.config.t_out)


def embedding_bag_cte(days, bond_table, action_table):
    """Reference co-trading embedding: the per-day embedding_bag loop that
    the dense embed_days product replaced, on a (..., 2V) stack of days."""
    v = bond_table.shape[0]
    days = np.asarray(days)
    rows = []
    for day in days.reshape(-1, 2 * v):
        buys = np.flatnonzero(day[:v])
        sells = np.flatnonzero(day[v:])
        total = Tensor(np.zeros(bond_table.shape[1]))
        if buys.size:
            total = ad.add(total, ad.embedding_bag(bond_table, buys))
            total = ad.add(total, ad.scale(ad.embedding_bag(action_table, (0,)), float(buys.size)))
        if sells.size:
            total = ad.add(total, ad.embedding_bag(bond_table, sells))
            total = ad.add(total, ad.scale(ad.embedding_bag(action_table, (1,)), float(sells.size)))
        rows.append(total)
    return ad.reshape(ad.stack_rows(rows), (*days.shape[:-1], bond_table.shape[1]))


class TestCoTradingEmbedding:
    def setup_method(self):
        self.model = build_model(toy_config("TransPPRZ"))
        self.bond_table = self.model.params["cte.bonds"]
        self.action_table = self.model.params["cte.actions"]
        self.bonds = self.bond_table.values
        self.actions = self.action_table.values

    def encode(self, day):
        return self.model.embed_days(day)

    def test_empty_day_is_zero(self):
        out = self.encode(np.zeros(16, dtype=np.uint8))
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_single_buy(self):
        day = np.zeros(16, dtype=np.uint8)
        day[3] = 1
        out = self.encode(day)
        np.testing.assert_allclose(out.values, self.bonds[3] + self.actions[0], atol=1e-15)

    def test_buy_and_sell_same_bond(self):
        day = np.zeros(16, dtype=np.uint8)
        day[1] = 1
        day[8 + 1] = 1
        out = self.encode(day)
        expected = 2.0 * self.bonds[1] + self.actions[0] + self.actions[1]
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_dense_product_matches_embedding_bag_loop(self):
        # a (2, 3) stack of days with an empty day in it; float64 sums of a
        # few table rows in another order agree to well under 1e-12
        days = random_day_matrix(6, 8, 22, density=0.4).reshape(2, 3, 16)
        days[1, 2] = 0
        params = [self.bond_table, self.action_table]
        grads = []
        for encode in (self.encode, lambda d: embedding_bag_cte(d, *params)):
            ad.reset_tape()
            out = encode(days)
            assert out.shape == (2, 3, 4)
            grads.append([out.values] + ad.backward(sum_all(ad.mul(out, out)), params))
        for dense, loop in zip(*grads):
            np.testing.assert_allclose(dense, loop, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(grads[0][0][1, 2], np.zeros(4))

    def test_tables_shared_between_encoder_and_decoder(self):
        x = random_day_matrix(3, 8, 4)
        teacher = random_day_matrix(2, 8, 5)
        ad.reset_tape()
        out = self.model.forward(x, teacher=teacher)
        (grad,) = ad.backward(sum_all(out), [self.model.params["cte.bonds"]])
        # one shared table receives gradient from both sides of the model
        assert np.abs(grad).sum() > 0


def residual(kind, x, fx, **values):
    """Encoder layer 0's first residual under ``kind``'s scheme, with the
    given values written into that layer's parameters first."""
    model = build_model(toy_config(kind, d_model=x.shape[-1], heads=1))
    for name, value in values.items():
        model.params[f"encoder.l0.{name}"].values[...] = value
    (_, _, (rule, _)), *_ = model._encoder
    return model._residual(x, fx, rule)


class TestResidualSchemes:
    def test_zero_vector_gate_is_identity(self):
        x = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
        fx = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
        out = residual("TransPPRZ", x, fx)
        assert np.array_equal(out.values, x.values)

    def test_constant_vector_equals_scalar_gate(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)))
        fx = Tensor(rng.normal(size=(3, 4)))
        for c in (0.37, -1.2, 2.0):
            vec = residual("TransPPRZ", x, fx, gate=c)
            scal = residual("TransRE", x, fx, gate=c)
            assert np.array_equal(vec.values, scal.values)

    @pytest.mark.parametrize("kind, shape", [("TransRE", ()), ("TransPPRZ", (4,))])
    def test_both_gates_run_one_op(self, kind, shape):
        x, fx = Tensor(np.ones((3, 4)), requires_grad=True), Tensor(np.ones((3, 4)))
        ad.reset_tape()
        residual(kind, x, fx)
        model = build_model(toy_config(kind))
        assert model.params["encoder.l0.gate"].shape == shape
        assert [entry.name for entry in ad._TAPE] == ["residual_gate"]

    def test_pointwise_arithmetic_example(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        fx = Tensor(np.array([[0.5, -0.5]]))
        out = residual("TransPPRZ", x, fx, gate=[2.0, 0.0])
        assert out.values.tolist() == [[2.0, 2.0]]

    def test_norm_mode_normalizes_sum(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        fx = Tensor(np.array([[0.0, 0.0]]))
        out = residual("TransFV", x, fx)  # gamma ones, beta zeros at init
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-5)


def full_prefix_predict(model, input_days):
    """Autoregressive inference that re-decodes the whole prefix (the start
    vector and every day fed back so far) at every step and heads every
    position, kept as the reference for ``predict``'s incremental decoding."""
    cfg = model.config
    with ad.no_grad():
        memory = model.encode(input_days)
        lead = memory.shape[:-2]
        sos = np.broadcast_to(model.params["decoder.sos"].values, (*lead, 1, cfg.d_model))
        fed_back = np.zeros((*lead, cfg.t_out - 1, 2 * cfg.vocab_size))
        rows = []
        for step in range(1, cfg.t_out + 1):
            embedded = model.embed_days(fed_back[..., : step - 1, :]).values
            prefix = np.concatenate([sos, embedded], axis=-2)
            prefix = prefix + positional_encoding(step, cfg.d_model)
            out = ad.squash(ad.linear(model._decode(Tensor(prefix), memory), *model._readout))
            rows.append(out.values[..., -1, :])
            if step < cfg.t_out:
                fed_back[..., step - 1, :] = rows[-1] >= models.FEEDBACK_THRESHOLD
    return np.stack(rows, axis=-2)


TABLES = ("_embedding", "_sos", "_readout", "_encoder", "_decoder")


def table_references(model) -> Counter:
    """How often the model's layer tables hold each tensor, by ``id``.  A
    table shared by several slots (a layer's one gate rule) counts once."""
    seen, found = set(), Counter()

    def walk(node):
        if isinstance(node, Tensor):
            found[id(node)] += 1
        elif id(node) not in seen:
            seen.add(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    for name in TABLES:
        walk(getattr(model, name))
    return found


class TestLayerTables:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_tables_hold_every_parameter_exactly_once(self, kind, n_layers):
        model = build_model(toy_config(kind, n_layers=n_layers))
        expected = Counter(id(t) for t in model.params.tensors())
        assert len(expected) == len(model.params.names())
        assert table_references(model) == expected

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_parameters_are_read_live(self, kind):
        # a copy of any weight kept from an earlier call would miss the write
        model, other = (build_model(toy_config(kind, n_layers=2, seed=s)) for s in (1, 2))
        # off the zero gates, so that every weight reaches the output
        other.params.flat += np.random.default_rng(43).normal(scale=0.2, size=other.params.flat.size)
        x, teacher = random_day_matrix(3, 8, 41), random_day_matrix(2, 8, 42)
        before = model.predict(x)
        model.forward(x, teacher=teacher)
        expected = other.predict(x)
        assert not np.array_equal(before, expected)
        model.params.flat[:] = other.params.flat
        np.testing.assert_array_equal(model.predict(x), expected)
        np.testing.assert_array_equal(model.forward(x, teacher=teacher).values,
                                      other.forward(x, teacher=teacher).values)


class TestTransformer:
    def test_identity_at_init(self):
        for kind in ("TransRE", "TransPPRZ"):
            model = build_model(toy_config(kind, n_layers=2))
            x = random_day_matrix(3, 8, 9)
            encoder_out = model.encode(x)
            expected = model.embed_days(x).values + positional_encoding(3, 4)
            assert np.abs(encoder_out.values - expected).max() < 1e-12

    def test_output_shape_and_range(self):
        for kind in ("TransFV", "TransCTE", "TransRE", "TransPPRZ"):
            model = build_model(toy_config(kind))
            x = random_day_matrix(3, 8, 10)
            teacher = random_day_matrix(2, 8, 11)
            out = model.forward(x, teacher=teacher)
            assert out.values.shape == (2, 16)
            assert (out.values >= 0.0).all() and (out.values <= 1.0).all()
            pred = model.predict(x)
            assert pred.shape == (2, 16)
            assert (pred >= 0.0).all() and (pred <= 1.0).all()

    def test_missing_teacher_rejected(self):
        model = build_model(toy_config("TransFV"))
        with pytest.raises(ContractError):
            model.forward(random_day_matrix(3, 8, 12))

    def test_teacher_of_other_windows_rejected(self):
        model = build_model(toy_config("TransFV"))
        x = random_day_matrix(6, 8, 12).reshape(2, 3, 16)
        teacher = random_day_matrix(6, 8, 13).reshape(3, 2, 16)
        with pytest.raises(ShapeMismatchError, match=r"teacher shape \(3, 2, 16\) does not match"):
            model.forward(x, teacher=teacher)

    def test_causality_exact(self):
        # perturbing teacher day t may only affect predictions at days > t
        model = build_model(toy_config("TransCTE", t_out=4, seed=3))
        rng = np.random.default_rng(13)
        for t in model.params.tensors():
            t.values += rng.normal(scale=0.2, size=t.shape)  # leave init symmetry
        x = random_day_matrix(3, 8, 14)
        teacher = random_day_matrix(4, 8, 15)
        base = model.forward(x, teacher=teacher).values
        for t in range(4):
            perturbed = teacher.copy()
            perturbed[t] = 1 - perturbed[t]
            out = model.forward(x, teacher=perturbed).values
            assert np.array_equal(out[: t + 1], base[: t + 1])

    def test_gate_gradients_flow(self):
        # At exact zero init the decoder ignores the encoder (cross-attention
        # is gated away), so encoder gates see gradient only once the decoder
        # gates have moved; one optimizer step establishes full flow.
        for kind in ("TransRE", "TransPPRZ"):
            model = build_model(toy_config(kind, n_layers=2))
            x = random_day_matrix(3, 8, 16)
            teacher = random_day_matrix(2, 8, 17)
            params = model.params.tensors()

            def loss_grads():
                ad.reset_tape()
                loss = ad.mse_loss(model.forward(x, teacher=teacher),
                                   Tensor(teacher.astype(float)))
                assert loss.item() > 0
                return dict(zip(model.params.names(), ad.backward(loss, params)))

            grads = loss_grads()
            decoder_gates = [n for n in model.params.names()
                             if n.endswith(".gate") and n.startswith("decoder")]
            assert decoder_gates
            for name in decoder_gates:
                assert np.abs(grads[name]).max() > 0, name

            flat_grad = np.concatenate([g.reshape(-1) for g in grads.values()])
            ad.adam_step(model.params.flat, flat_grad, ad.OptimizerState(learning_rate=0.01))
            grads = loss_grads()
            for name in model.params.names():
                if name.endswith(".gate"):
                    assert np.abs(grads[name]).max() > 0, name

    def test_pprz_reduces_to_scalar_gate_model(self, monkeypatch):
        cfg = toy_config("TransPPRZ", n_layers=2, seed=5)
        pprz = build_model(cfg)
        # the CTE embedding under scalar gates, a pairing no kind has
        monkeypatch.setitem(models._TRANSFORMER_MODES, "TransPPRZ", ("cte", "scalar"))
        twin = build_model(cfg)
        rng = np.random.default_rng(18)
        for name in pprz.params.names():
            if name.endswith(".gate"):
                c = float(rng.normal(scale=0.5))
                pprz.params[name].values[...] = c
                twin.params[name].values[...] = c
            else:
                twin.params[name].values[...] = pprz.params[name].values
        for trial in range(5):
            x = random_day_matrix(3, 8, 100 + trial)
            teacher = random_day_matrix(2, 8, 200 + trial)
            a = pprz.forward(x, teacher=teacher).values
            b = twin.forward(x, teacher=teacher).values
            assert np.array_equal(a, b)
            np.testing.assert_array_equal(pprz.predict(x), twin.predict(x))

    def test_no_key_bias_and_30_tape_entries_at_c7_size(self):
        x = np.stack([random_day_matrix(5, 20, seed) for seed in range(8)])
        teacher = np.stack([random_day_matrix(5, 20, seed) for seed in range(8, 16)])
        for kind in TRANSFORMER_KINDS:
            model = build_model(toy_config(kind))
            assert not [name for name in model.params.names() if name.endswith(".bk")], kind
            config = ModelConfig(kind=kind, vocab_size=20, t_in=5, t_out=5, d_model=32,
                                 heads=4, n_layers=2, d_ff=64)
            ad.reset_tape()
            ad.mse_loss(build_model(config).forward(x, teacher=teacher),
                        Tensor(teacher.astype(np.float64)))
            # per layer one entry per attention, residual and feed-forward
            # block: 8 in the encoder, 12 in the decoder; then 2 for the
            # encoder input, 5 for the decoder input, 2 for the head, the loss
            assert ad.tape_size() == 30, kind

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_predict_matches_full_prefix_decoding(self, kind):
        small = dict(vocab_size=8, t_in=3, t_out=4, d_model=4, heads=2, n_layers=2, d_ff=8)
        c7 = dict(vocab_size=20, t_in=5, t_out=5, d_model=32, heads=4, n_layers=2, d_ff=64)
        cases = [(small, ()), (small, (3,)), (small, (2, 3)), (c7, (40,)),
                 ({**small, "t_out": 1}, (3,)), ({**small, "t_in": 2, "t_out": 6}, (3,)),
                 ({**small, "n_layers": 1}, (3,)), ({**small, "n_layers": 3}, (2, 3))]
        for sizes, lead in cases:
            model = build_model(ModelConfig(kind=kind, seed=21, **sizes))
            rng = np.random.default_rng(22)
            for t in model.params.tensors():
                t.values += rng.normal(scale=0.3, size=t.shape)  # open the zero gates
            v, t_in = sizes["vocab_size"], sizes["t_in"]
            x = (rng.random((*lead, t_in, 2 * v)) < 0.3).astype(np.uint8)
            # another BLAS may round a one-row head product differently
            np.testing.assert_allclose(model.predict(x), full_prefix_predict(model, x),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers, t_out", [(1, 1), (2, 4), (3, 5)])
    def test_predict_projects_each_row_once(self, monkeypatch, n_layers, t_out):
        model = build_model(toy_config("TransPPRZ", n_layers=n_layers, t_out=t_out))
        p = model.params
        names = {id(p[name].values): name for name in p.names()}
        fused = {f"{layer}.wqkv": np.concatenate([p[f"{layer}.w{w}"].values for w in "qkv"], axis=1)
                 for i in range(n_layers) for layer in (f"encoder.l{i}.attn", f"decoder.l{i}.self")}

        def name_of(w):
            return names.get(id(w)) or next(n for n, f in fused.items() if np.array_equal(w, f))

        projected = {}  # weight name -> rows of each product by it
        project = ad._project
        monkeypatch.setattr(ad, "_project", lambda x, w: projected.setdefault(
            name_of(w), []).append(math.prod(x.shape[:-1])) or project(x, w))
        windows, t_in = 5, 3
        model.predict(np.stack([random_day_matrix(t_in, 8, seed) for seed in range(windows)]))
        attention = {name for name in projected if re.search(r"\.w(q|k|v|qkv)$", name)}
        assert len(attention) == 5 * n_layers
        for i in range(n_layers):
            assert projected[f"encoder.l{i}.attn.wqkv"] == [windows * t_in]
            # the memory's keys and values are projected before the first step
            for w in "kv":
                assert projected[f"decoder.l{i}.cross.w{w}"] == [windows * t_in]
            # then each step projects the newest position of every window once
            assert projected[f"decoder.l{i}.self.wqkv"] == [windows] * t_out
            assert projected[f"decoder.l{i}.cross.wq"] == [windows] * t_out

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_predict_builds_no_tensor_and_records_nothing(self, monkeypatch, kind):
        model = build_model(toy_config(kind, n_layers=2))
        assert all(t.requires_grad for t in model.params.tensors())
        built = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__", lambda t, *args, **kw: built.append(1) or init(t, *args, **kw))
        ad.reset_tape()
        model.predict(np.stack([random_day_matrix(3, 8, seed) for seed in range(4)]))
        assert ad.tape_size() == 0 and not built

    def test_trace_collects_all_layers(self):
        model = build_model(toy_config("TransPPRZ", n_layers=2))
        trace = []
        model.forward(random_day_matrix(3, 8, 19),
                      teacher=random_day_matrix(2, 8, 20), trace=trace)
        assert [name for name, _ in trace] == ["enc0", "enc1", "dec0", "dec1"]


class TestCheckpoints:
    def trained(self, kind, **overrides):
        """A model whose parameters differ from a fresh build of its config."""
        model = build_model(toy_config(kind, **{"seed": 23, **overrides}))
        model.params.flat[:] = np.random.default_rng(24).normal(size=model.params.flat.size)
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        for kind in ("FCSum", "BiLSTM", "TransPPRZ"):
            model = self.trained(kind)
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(path, model)
            loaded = load_checkpoint(path, model.config)
            assert type(loaded) is type(model)
            assert loaded.config == model.config
            assert loaded.params.names() == model.params.names()
            assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
            x = random_day_matrix(3, 8, 24)
            np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        model = self.trained("FCSum")
        save_checkpoint(path, model)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ArtifactError, match="truncated"):
                load_checkpoint(path, model.config)

    def test_malformed_manifest_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        model = self.trained("FCSum")
        save_checkpoint(path, model)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        extra = np.float64(1.5).astype("<f8").tobytes()
        for corrupt, reason in ((blob + extra, "8 trailing"), (blob + b"\0", "1 trailing"),
                                (b"{" + blob, "malformed"),
                                (b'{"entries":3}\n' + payload, "malformed")):
            path.write_bytes(corrupt)
            with pytest.raises(ArtifactError, match=reason):
                load_checkpoint(path, model.config)

    def test_manifest_carries_magic_version_and_config(self, tmp_path):
        path = tmp_path / "re.ckpt"
        model = self.trained("TransRE", heads=4, seed=3)
        save_checkpoint(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        assert set(manifest) == {"magic", "version", "config"}
        assert manifest["magic"] == "otcforecast-checkpoint" and manifest["version"] == 4
        assert manifest["config"] == {"kind": "TransRE", "vocab_size": 8, "t_in": 3, "t_out": 2,
                                      "d_model": 4, "heads": 4, "n_layers": 1, "d_ff": 8,
                                      "hidden": 4, "seed": 3}
        # the payload is the packed vector, in names() order
        assert payload == model.params.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("edit", [
        ("otcforecast-checkpoint", "otcforecast-histories", "malformed manifest"),
        ('"version":4', '"version":3', "malformed manifest"),
        ('"heads":2', '"heads":3', "trained with heads = 3, the config gives 2"),
        ('"kind":"TransRE"', '"kind":"MLP"',
         "trained with kind = 'MLP', the config gives 'TransRE'"),
        ('"hidden":4,', '', "malformed manifest"),
        ('"config":{', '"config":{"dropout":1,', "malformed manifest"),
    ])
    def test_bad_magic_version_or_config_rejected(self, tmp_path, edit):
        path = tmp_path / "re.ckpt"
        model = self.trained("TransRE")
        save_checkpoint(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        old, new, reason = edit
        assert old.encode() in header
        path.write_bytes(header.replace(old.encode(), new.encode(), 1) + b"\n" + payload)
        with pytest.raises(ArtifactError, match=re.escape(reason)):
            load_checkpoint(path, model.config)


    def test_manifest_read_is_bounded(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        path.write_bytes(b"x" * (16 << 20))  # 16 MiB and no newline
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactError, match="truncated manifest line"):
                check_checkpoint(path, toy_config("FCSum"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_manifest_line_longer_than_the_limit_rejected(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        model = self.trained("FCSum")
        save_checkpoint(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        # JSON allows trailing spaces; the limit counts the newline
        path.write_bytes(header.ljust(MANIFEST_LIMIT - 1) + b"\n" + payload)
        assert check_checkpoint(path, model.config).tobytes() == model.params.flat.tobytes()
        path.write_bytes(header.ljust(MANIFEST_LIMIT) + b"\n" + payload)
        with pytest.raises(ArtifactError, match="truncated manifest line"):
            check_checkpoint(path, model.config)

# a function-scoped tmp_path is safe here: every example rewrites the same file
CHECKPOINT_PROPERTY = settings(max_examples=24, deadline=None,
                               suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def checkpointed_models(draw):
    """A toy model of a drawn kind whose flat vector is arbitrary finite f64
    bit patterns: a NaN or infinite pattern has its top exponent bit cleared."""
    model = build_model(toy_config(draw(st.sampled_from(MODEL_KINDS)),
                                   n_layers=draw(st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="bits seed"))
    bits = rng.integers(0, 2**64, size=model.params.flat.size, dtype=np.uint64)
    bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)
    model.params.flat[:] = bits.view(np.float64)
    return model


class TestCheckpointProperties:
    @CHECKPOINT_PROPERTY
    @given(checkpointed_models())
    def test_round_trip_is_bit_exact(self, tmp_path, model):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path, model.config)
        assert loaded.config == model.config
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    @CHECKPOINT_PROPERTY
    @given(checkpointed_models(), st.data())
    def test_truncation_at_any_offset_rejected(self, tmp_path, model, data):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="offset")])
        with pytest.raises(ArtifactError, match="truncated"):
            load_checkpoint(path, model.config)

    @CHECKPOINT_PROPERTY
    @given(checkpointed_models(), st.data())
    def test_a_non_finite_value_anywhere_rejected(self, tmp_path, model, data):
        flat = model.params.flat
        index = data.draw(st.integers(0, flat.size - 1), label="index")
        # any NaN payload and sign, or either infinity
        mantissa = data.draw(st.integers(0, 2**52 - 1), label="mantissa")
        sign = data.draw(st.integers(0, 1), label="sign")
        flat.view(np.uint64)[index] = (sign << 63) | (0x7FF << 52) | mantissa
        assert not np.isfinite(flat[index])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(ArtifactError, match="non-finite parameter value"):
            load_checkpoint(path, model.config)


class TestFlatParameters:
    def test_flat_views_every_tensor_in_names_order(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "gate": np.asarray(7.0), "b": np.ones(4)}
        params = Parameters(arrays)
        assert params.names() == ["w", "gate", "b"]
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.reshape(-1) for a in arrays.values()]))
        arrays["w"][0, 0] = -1.0  # the constructor copied the arrays
        assert params["w"].values[0, 0] == 0.0
        for kind in MODEL_KINDS:
            params = build_model(toy_config(kind)).params
            flat = params.flat
            assert flat.dtype == np.float64 and flat.ndim == 1
            offset = 0
            # harness.train gathers gradients in tensors() order into flat's layout
            for name, tensor in zip(params.names(), params.tensors()):
                values = tensor.values
                assert tensor is params[name] and np.shares_memory(values, flat), name
                assert values.__array_interface__["data"][0] == (
                    flat.__array_interface__["data"][0] + 8 * offset), name
                offset += values.size
            assert offset == flat.size

    def test_scalar_gate_packs_as_a_0d_view(self):
        params = build_model(toy_config("TransRE")).params
        flat = params.flat
        gate = params["encoder.l0.gate"].values
        assert gate.shape == () and np.shares_memory(gate, flat)
        flat[:] = 7.0
        assert params["encoder.l0.gate"].item() == 7.0

    def test_duplicate_name_rejected_at_build(self):
        b = _Builder(np.random.default_rng(0))
        b.matrix("head.w", 2, 2)
        with pytest.raises(ContractError, match="duplicate parameter name 'head.w'"):
            b.zeros("head.w", 2)


# (SHA-256 of the initial flat.tobytes(), [(name, shape), ...] in names() order)
# per kind at toy_config, recorded with numpy 2.4.6
LAYOUTS = {
    "FCSum": (
        "8b20e9662a2949d20a812e13eb4ed6b6b636263940d29b6a4487badbca891b03",
        [("fc.w1", (16, 4)), ("fc.b1", (4,)), ("fc.w2", (4, 4)), ("fc.b2", (4,)),
         ("fc.w3", (4, 16)), ("fc.b3", (16,))],
    ),
    "FCConcat": (
        "99084896279c2e1bfd38ac29591e2a3fe8ef5d23788798a9c86e83cb55b4901b",
        [("fc.w1", (48, 4)), ("fc.b1", (4,)), ("fc.w2", (4, 4)), ("fc.b2", (4,)),
         ("fc.w3", (4, 16)), ("fc.b3", (16,))],
    ),
    "LSTM": (
        "bd575461b7ed7c988991d3f3e3e15fe8e827119b9fd309c4f4c2438871d7c219",
        [("lstm.fwd.wx", (16, 16)), ("lstm.fwd.wh", (4, 16)), ("lstm.fwd.b", (16,)),
         ("readout.w", (4, 16)), ("readout.b", (16,))],
    ),
    "BiLSTM": (
        "7f42f4731a1b7601644e5ad4e3a2d848fb661a8ebe39bb4fd5cf8058e9be2d9b",
        [("lstm.fwd.wx", (16, 16)), ("lstm.fwd.wh", (4, 16)), ("lstm.fwd.b", (16,)),
         ("lstm.bwd.wx", (16, 16)), ("lstm.bwd.wh", (4, 16)), ("lstm.bwd.b", (16,)),
         ("readout.w", (8, 16)), ("readout.b", (16,))],
    ),
    "TransFV": (
        "348f7bf7abb4695ec0ff4c45489f9e669755af6aa22340470e2847aeb4db245f",
        [("embed.w", (16, 4)), ("embed.b", (4,)), ("decoder.sos", (4,)),
         ("encoder.l0.attn.wq", (4, 4)), ("encoder.l0.attn.bq", (4,)),
         ("encoder.l0.attn.wk", (4, 4)),
         ("encoder.l0.attn.wv", (4, 4)), ("encoder.l0.attn.bv", (4,)),
         ("encoder.l0.attn.wo", (4, 4)), ("encoder.l0.attn.bo", (4,)),
         ("encoder.l0.ff.w1", (4, 8)), ("encoder.l0.ff.b1", (8,)), ("encoder.l0.ff.w2", (8, 4)),
         ("encoder.l0.ff.b2", (4,)), ("encoder.l0.norm1.gamma", (4,)),
         ("encoder.l0.norm1.beta", (4,)), ("encoder.l0.norm2.gamma", (4,)),
         ("encoder.l0.norm2.beta", (4,)), ("decoder.l0.self.wq", (4, 4)),
         ("decoder.l0.self.bq", (4,)), ("decoder.l0.self.wk", (4, 4)),
         ("decoder.l0.self.wv", (4, 4)),
         ("decoder.l0.self.bv", (4,)), ("decoder.l0.self.wo", (4, 4)),
         ("decoder.l0.self.bo", (4,)), ("decoder.l0.cross.wq", (4, 4)),
         ("decoder.l0.cross.bq", (4,)), ("decoder.l0.cross.wk", (4, 4)),
         ("decoder.l0.cross.wv", (4, 4)),
         ("decoder.l0.cross.bv", (4,)), ("decoder.l0.cross.wo", (4, 4)),
         ("decoder.l0.cross.bo", (4,)), ("decoder.l0.ff.w1", (4, 8)), ("decoder.l0.ff.b1", (8,)),
         ("decoder.l0.ff.w2", (8, 4)), ("decoder.l0.ff.b2", (4,)),
         ("decoder.l0.norm1.gamma", (4,)), ("decoder.l0.norm1.beta", (4,)),
         ("decoder.l0.norm2.gamma", (4,)), ("decoder.l0.norm2.beta", (4,)),
         ("decoder.l0.norm3.gamma", (4,)), ("decoder.l0.norm3.beta", (4,)), ("head.w", (4, 16)),
         ("head.b", (16,))],
    ),
    "TransCTE": (
        "bfdf119a4b8a0badf05060c6f5b4660a433fac134f9604b4f172cf66052af3ee",
        [("cte.bonds", (8, 4)), ("cte.actions", (2, 4)), ("decoder.sos", (4,)),
         ("encoder.l0.attn.wq", (4, 4)), ("encoder.l0.attn.bq", (4,)),
         ("encoder.l0.attn.wk", (4, 4)),
         ("encoder.l0.attn.wv", (4, 4)), ("encoder.l0.attn.bv", (4,)),
         ("encoder.l0.attn.wo", (4, 4)), ("encoder.l0.attn.bo", (4,)),
         ("encoder.l0.ff.w1", (4, 8)), ("encoder.l0.ff.b1", (8,)), ("encoder.l0.ff.w2", (8, 4)),
         ("encoder.l0.ff.b2", (4,)), ("encoder.l0.norm1.gamma", (4,)),
         ("encoder.l0.norm1.beta", (4,)), ("encoder.l0.norm2.gamma", (4,)),
         ("encoder.l0.norm2.beta", (4,)), ("decoder.l0.self.wq", (4, 4)),
         ("decoder.l0.self.bq", (4,)), ("decoder.l0.self.wk", (4, 4)),
         ("decoder.l0.self.wv", (4, 4)),
         ("decoder.l0.self.bv", (4,)), ("decoder.l0.self.wo", (4, 4)),
         ("decoder.l0.self.bo", (4,)), ("decoder.l0.cross.wq", (4, 4)),
         ("decoder.l0.cross.bq", (4,)), ("decoder.l0.cross.wk", (4, 4)),
         ("decoder.l0.cross.wv", (4, 4)),
         ("decoder.l0.cross.bv", (4,)), ("decoder.l0.cross.wo", (4, 4)),
         ("decoder.l0.cross.bo", (4,)), ("decoder.l0.ff.w1", (4, 8)), ("decoder.l0.ff.b1", (8,)),
         ("decoder.l0.ff.w2", (8, 4)), ("decoder.l0.ff.b2", (4,)),
         ("decoder.l0.norm1.gamma", (4,)), ("decoder.l0.norm1.beta", (4,)),
         ("decoder.l0.norm2.gamma", (4,)), ("decoder.l0.norm2.beta", (4,)),
         ("decoder.l0.norm3.gamma", (4,)), ("decoder.l0.norm3.beta", (4,)), ("head.w", (4, 16)),
         ("head.b", (16,))],
    ),
    "TransRE": (
        "2c7a07dba32ec34289857d18b1e6f2ecc2b9c511cffd861eea2e3692360e9973",
        [("embed.w", (16, 4)), ("embed.b", (4,)), ("decoder.sos", (4,)),
         ("encoder.l0.attn.wq", (4, 4)), ("encoder.l0.attn.bq", (4,)),
         ("encoder.l0.attn.wk", (4, 4)),
         ("encoder.l0.attn.wv", (4, 4)), ("encoder.l0.attn.bv", (4,)),
         ("encoder.l0.attn.wo", (4, 4)), ("encoder.l0.attn.bo", (4,)),
         ("encoder.l0.ff.w1", (4, 8)), ("encoder.l0.ff.b1", (8,)), ("encoder.l0.ff.w2", (8, 4)),
         ("encoder.l0.ff.b2", (4,)), ("encoder.l0.gate", ()), ("decoder.l0.self.wq", (4, 4)),
         ("decoder.l0.self.bq", (4,)), ("decoder.l0.self.wk", (4, 4)),
         ("decoder.l0.self.wv", (4, 4)),
         ("decoder.l0.self.bv", (4,)), ("decoder.l0.self.wo", (4, 4)),
         ("decoder.l0.self.bo", (4,)), ("decoder.l0.cross.wq", (4, 4)),
         ("decoder.l0.cross.bq", (4,)), ("decoder.l0.cross.wk", (4, 4)),
         ("decoder.l0.cross.wv", (4, 4)),
         ("decoder.l0.cross.bv", (4,)), ("decoder.l0.cross.wo", (4, 4)),
         ("decoder.l0.cross.bo", (4,)), ("decoder.l0.ff.w1", (4, 8)), ("decoder.l0.ff.b1", (8,)),
         ("decoder.l0.ff.w2", (8, 4)), ("decoder.l0.ff.b2", (4,)), ("decoder.l0.gate", ()),
         ("head.w", (4, 16)), ("head.b", (16,))],
    ),
    "TransPPRZ": (
        "db6879ea9461338c564c51e75170c90dff03eee6cd999c32d3a6d3aecb1f4c7b",
        [("cte.bonds", (8, 4)), ("cte.actions", (2, 4)), ("decoder.sos", (4,)),
         ("encoder.l0.attn.wq", (4, 4)), ("encoder.l0.attn.bq", (4,)),
         ("encoder.l0.attn.wk", (4, 4)),
         ("encoder.l0.attn.wv", (4, 4)), ("encoder.l0.attn.bv", (4,)),
         ("encoder.l0.attn.wo", (4, 4)), ("encoder.l0.attn.bo", (4,)),
         ("encoder.l0.ff.w1", (4, 8)), ("encoder.l0.ff.b1", (8,)), ("encoder.l0.ff.w2", (8, 4)),
         ("encoder.l0.ff.b2", (4,)), ("encoder.l0.gate", (4,)), ("decoder.l0.self.wq", (4, 4)),
         ("decoder.l0.self.bq", (4,)), ("decoder.l0.self.wk", (4, 4)),
         ("decoder.l0.self.wv", (4, 4)),
         ("decoder.l0.self.bv", (4,)), ("decoder.l0.self.wo", (4, 4)),
         ("decoder.l0.self.bo", (4,)), ("decoder.l0.cross.wq", (4, 4)),
         ("decoder.l0.cross.bq", (4,)), ("decoder.l0.cross.wk", (4, 4)),
         ("decoder.l0.cross.wv", (4, 4)),
         ("decoder.l0.cross.bv", (4,)), ("decoder.l0.cross.wo", (4, 4)),
         ("decoder.l0.cross.bo", (4,)), ("decoder.l0.ff.w1", (4, 8)), ("decoder.l0.ff.b1", (8,)),
         ("decoder.l0.ff.w2", (8, 4)), ("decoder.l0.ff.b2", (4,)), ("decoder.l0.gate", (4,)),
         ("head.w", (4, 16)), ("head.b", (16,))],
    ),
}


class TestParameterLayout:
    """A checkpoint stores ``flat`` in ``names()`` order and nothing else, so
    the names, shapes, order and initial draws are pinned per kind."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_names_shapes_and_initial_values_are_pinned(self, kind):
        params = build_model(toy_config(kind)).params
        digest, layout = LAYOUTS[kind]
        assert [(name, params[name].shape) for name in params.names()] == layout
        assert hashlib.sha256(params.flat.tobytes()).hexdigest() == digest

    def test_every_kind_is_pinned(self):
        assert list(LAYOUTS) == list(MODEL_KINDS)


def test_readme_model_zoo_lists_every_kind_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## The model zoo", 1)[1].split("\n\n")[1]
    kinds = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert tuple(kinds) == MODEL_KINDS
