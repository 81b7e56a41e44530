"""Model-zoo contracts: construction, embeddings, residual schemes,
causality, and checkpoint round-trips."""

import copy
import hashlib
import json
import math
import pickle
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
from otcforecast.harness import TrainSpec, train
from otcforecast.market import Sample
from otcforecast.models import (
    MODEL_KINDS,
    TRANSFORMER_KINDS,
    MANIFEST_LIMIT,
    ModelConfig,
    Parameters,
    _Builder,
    build_model,
    check_checkpoint,
    positional_encoding,
    save_checkpoint,
)

from helpers import (C7, CHECKPOINT_DEFECTS, assert_same_bits, finite_diff_check,
                     interrupted_writes, perturbed, positioned_composite, random_day_matrix,
                     squash_composite, sum_all, toy_config)


# builds that must raise ConfigurationError, and what its message must hold
REFUSED_BUILDS = {
    "unknown_kind": (lambda: toy_config("TransXXL"), None),
    "indivisible_heads": (lambda: toy_config("TransFV", d_model=6, heads=4), None),
    **{f"{field}_below_one": (lambda field=field: toy_config("LSTM", **{field: 0}),
                              f"{field} must be >= 1, got 0")
       for field in ("vocab_size", "t_in", "t_out", "d_model", "heads", "n_layers", "d_ff",
                     "hidden")},
    "transformer_of_FCSum": (lambda: models.TransformerModel(toy_config("FCSum")),
                             "'FCSum' is not a transformer kind"),
}


class TestBuildContracts:
    @pytest.mark.parametrize("case", REFUSED_BUILDS)
    def test_refused(self, case):
        build, match = REFUSED_BUILDS[case]
        with pytest.raises(ConfigurationError, match=match):
            build()


class TestPositionalEncoding:
    def test_the_sinusoid_formula(self):
        # channel 2i at position p is sin(p / 10000^(2i/d)), channel 2i + 1 its cosine
        pe = positional_encoding(50, 16)
        angles = np.arange(50)[:, None] / 10000.0 ** (np.arange(0, 16, 2) / 16)
        np.testing.assert_allclose(pe[:, 0::2], np.sin(angles), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pe[:, 1::2], np.cos(angles), rtol=0, atol=1e-12)
        assert np.abs(pe).max() <= 1.0

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigurationError):
            positional_encoding(4, 5)


class TestFCModels:
    @pytest.mark.parametrize("kind", ["FCSum", "FCConcat"])
    def test_only_the_sum_forgets_the_order_of_the_days(self, kind):
        model = build_model(toy_config(kind))
        x = random_day_matrix(3, 8, 1)
        assert len({day.tobytes() for day in x}) == 3
        for perm in ([2, 0, 1], [1, 2, 0]):
            assert np.array_equal(model.predict(x[perm]), model.predict(x)) == (kind == "FCSum")

    def test_input_shape_validated(self):
        model = build_model(toy_config("FCSum"))
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((4, 16)))

    @pytest.mark.parametrize("kind", ["FCSum", "FCConcat"])
    def test_hidden_block_matches_the_linear_tanh_chain_bit_for_bit(self, kind):
        model = build_model(toy_config(kind, seed=3))
        flat = model.params.flat
        flat[:] = np.random.default_rng(4).normal(scale=0.5, size=flat.size)
        days = random_day_matrix(4 * 3, 8, 5).reshape(4, 3, 16)
        target = Tensor(random_day_matrix(8, 8, 6).reshape(4, 2, 16).astype(np.float64))
        tensors = model.params.tensors()
        out = model.forward(days)
        grads = ad.backward(ad.mse_loss(out, target), tensors)
        assert [entry.name for entry in ad._TAPE] == [
            "feed_forward", "tanh", "linear", "squash", "tile_rows", "mse_loss"]
        ad.reset_tape()
        # the three layers as separate linear and tanh entries, on the model's own tensors
        (w1, b1, w2, b2), (w3, b3) = model._hidden, model._readout
        data = days.astype(np.float64)
        x = Tensor(np.add.reduce(data, axis=-2) if kind == "FCSum" else data.reshape(4, -1))
        h = ad.tanh(ad.linear(ad.tanh(ad.linear(x, w1, b1)), w2, b2))
        reference = ad.tile_rows(ad.squash(ad.linear(h, w3, b3)), 2)
        reference_grads = ad.backward(ad.mse_loss(reference, target), tensors)
        assert np.array_equal(out.values.view(np.uint64), reference.values.view(np.uint64))
        for name, grad, expected in zip(model.params.names(), grads, reference_grads):
            assert np.array_equal(grad.view(np.uint64), expected.view(np.uint64)), name


class TestRecurrentModels:
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


@pytest.mark.parametrize("kind, entries", [("FCSum", 6), ("FCConcat", 6), ("LSTM", 6), ("BiLSTM", 9)])
def test_tape_entries_per_batch_do_not_grow_with_t_in(kind, entries):
    for t_in in (3, 5):
        ad.reset_tape()
        model = build_model(toy_config(kind, t_in=t_in))
        x = random_day_matrix(4 * t_in, 8, 12).reshape(4, t_in, 16)
        target = random_day_matrix(8, 8, 13).reshape(4, 2, 16).astype(np.float64)
        ad.mse_loss(model.forward(x), Tensor(target))
        assert ad.tape_size() == entries, t_in


@pytest.mark.parametrize("kind", ["FCSum", "FCConcat", "LSTM", "BiLSTM"])
def test_predict_is_forward_with_nothing_recorded(kind):
    model = build_model(toy_config(kind))
    x = np.stack([random_day_matrix(3, 8, seed) for seed in range(4)])
    predicted = model.predict(x)
    assert ad.tape_size() == 0
    forward = model.forward(x).values
    assert ad.tape_size() > 0
    assert np.array_equal(predicted.view(np.uint64), forward.view(np.uint64))
    model.params.flat[:] = 0.0  # zero parameters forecast one half
    np.testing.assert_array_equal(model.predict(x), np.full((4, 2, 16), 0.5))


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

    @pytest.mark.parametrize("cells, expected, atol", [
        ((), lambda bonds, actions: np.zeros(4), 0),
        ((3,), lambda bonds, actions: bonds[3] + actions[0], 1e-15),
        ((1, 8 + 1), lambda bonds, actions: 2.0 * bonds[1] + actions[0] + actions[1], 1e-15),
    ], ids=["empty_day", "single_buy", "buy_and_sell_same_bond"])
    def test_a_day_embeds_as_its_bonds_and_actions(self, cells, expected, atol):
        day = np.zeros(16, dtype=np.uint8)
        day[list(cells)] = 1
        np.testing.assert_allclose(self.model.embed_days(day).values,
                                   expected(self.bonds, self.actions), rtol=0, atol=atol)

    def test_dense_product_matches_embedding_bag_loop(self):
        # a (2, 3) stack of days with an empty day in it; float64 sums of a
        # few table rows in another order agree to well under 1e-12
        days = random_day_matrix(6, 8, 22, density=0.4).reshape(2, 3, 16)
        days[1, 2] = 0
        params = [self.bond_table, self.action_table]
        grads = []
        for encode in (self.model.embed_days, lambda d: embedding_bag_cte(d, *params)):
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
    return model._residual(x, fx, *rule)


class TestResidualSchemes:
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

    @pytest.mark.parametrize("gate, expected", [
        ((0.0, 0.0), [[1.0, 2.0]]), ((2.0, 0.0), [[2.0, 2.0]]),
    ], ids=["zero_is_identity", "pointwise"])
    def test_vector_gate_adds_its_share_of_each_channel(self, gate, expected):
        out = residual("TransPPRZ", Tensor([[1.0, 2.0]]), Tensor([[0.5, -0.5]]), gate=gate)
        assert out.values.tolist() == expected

    def test_norm_mode_normalizes_sum(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        fx = Tensor(np.array([[0.0, 0.0]]))
        out = residual("TransFV", x, fx)  # gamma ones, beta zeros at init
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-5)


SMALL = dict(vocab_size=8, t_in=3, t_out=4, d_model=4, heads=2, n_layers=2, d_ff=8)


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


def table_references(model) -> Counter:
    """How often the tensors, tuples, lists and dicts a model holds outside
    ``params`` hold each tensor, by ``id``.  A table shared by several slots
    (a layer's one gate rule) counts once."""
    seen, found = set(), Counter()

    def walk(node):
        if isinstance(node, Tensor):
            found[id(node)] += 1
        elif isinstance(node, (tuple, list, dict)) and id(node) not in seen:
            seen.add(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    walk({name: value for name, value in vars(model).items() if name != "params"})
    return found


class TestLayerTables:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_tables_hold_every_parameter_exactly_once(self, kind, n_layers):
        model = build_model(toy_config(kind, n_layers=n_layers))
        expected = Counter(id(t) for t in model.params.tensors())
        assert len(expected) == len(model.params.names())
        assert table_references(model) == expected

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_parameters_are_read_live(self, kind):
        # a copy of any weight kept from an earlier call would miss the write
        model, other = (build_model(toy_config(kind, n_layers=2, seed=s)) for s in (1, 2))
        # off the zero gates, so that every weight reaches the output
        perturbed(other, 43, scale=0.2)
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
    @pytest.mark.parametrize("kind", ["TransFV", "TransPPRZ"])
    def test_embedding_reads_uint8_bool_and_float64_days_alike(self, kind):
        # an empty day, and a bond bought and sold on one day: a bool sum
        # of the two sides would count that bond once
        model = build_model(toy_config(kind))
        days = random_day_matrix(6, 8, 23, density=0.4).reshape(2, 3, 16)
        days[0, 1] = 0
        days[1, 2, [1, 8 + 1]] = 1
        embedded = [model.embed_days(days.astype(dtype)).values
                    for dtype in (np.uint8, bool, np.float64)]
        assert np.array_equal(embedded[0], embedded[1])
        assert np.array_equal(embedded[0], embedded[2])

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_output_shape_and_range(self, kind):
        model = build_model(toy_config(kind))
        x = random_day_matrix(3, 8, 10)
        teacher = random_day_matrix(2, 8, 11)
        out = model.forward(x, teacher=teacher)
        assert out.values.shape == (2, 16)
        assert (out.values >= 0.0).all() and (out.values <= 1.0).all()
        pred = model.predict(x)
        assert pred.shape == (2, 16)
        assert (pred >= 0.0).all() and (pred <= 1.0).all()

    @pytest.mark.parametrize("teacher, error, match", [
        (None, ContractError, None),
        (random_day_matrix(6, 8, 13).reshape(3, 2, 16), ShapeMismatchError,
         r"teacher shape \(3, 2, 16\) does not match"),
    ], ids=["missing", "of_other_windows"])
    def test_teacher_refused(self, teacher, error, match):
        model = build_model(toy_config("TransFV"))
        with pytest.raises(error, match=match):
            model.forward(random_day_matrix(6, 8, 12).reshape(2, 3, 16), teacher=teacher)

    def test_causality_exact(self):
        # perturbing teacher day t may only affect predictions at days > t
        model = perturbed(build_model(toy_config("TransCTE", t_out=4, seed=3)), 13, scale=0.2)
        x = random_day_matrix(3, 8, 14)
        teacher = random_day_matrix(4, 8, 15)
        base = model.forward(x, teacher=teacher).values
        for t in range(4):
            flipped = teacher.copy()
            flipped[t] = 1 - flipped[t]
            out = model.forward(x, teacher=flipped).values
            assert np.array_equal(out[: t + 1], base[: t + 1])

    @pytest.mark.parametrize("kind", ["TransRE", "TransPPRZ"])
    def test_gate_gradients_flow(self, kind):
        # At exact zero init the decoder ignores the encoder (cross-attention
        # is gated away), so encoder gates see gradient only once the decoder
        # gates have moved; one optimizer step establishes full flow.
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

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_no_key_bias_and_27_tape_entries_at_c7_size(self, kind):
        x = np.stack([random_day_matrix(5, 20, seed) for seed in range(8)])
        teacher = np.stack([random_day_matrix(5, 20, seed) for seed in range(8, 16)])
        model = build_model(toy_config(kind))
        assert not [name for name in model.params.names() if name.endswith(".bk")]
        ad.reset_tape()
        ad.mse_loss(build_model(ModelConfig(kind=kind, **C7)).forward(x, teacher=teacher),
                    Tensor(teacher.astype(np.float64)))
        # per layer one entry per attention, residual and feed-forward
        # block: 8 in the encoder, 12 in the decoder; then 2 for each
        # input sequence (its embedding and its positioned rows), 2 for
        # the head, the loss
        assert ad.tape_size() == 27

    @pytest.mark.parametrize("t_out", [1, 3])
    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_training_matches_composite_input_sequences_bit_for_bit(self, monkeypatch, kind,
                                                                     t_out):
        # at t_out 1 the decoder's input is the start row alone
        model = perturbed(build_model(toy_config(kind, t_out=t_out, n_layers=2, seed=23)), 24)
        x = np.stack([random_day_matrix(3, 8, seed) for seed in range(4)])
        teacher = np.stack([random_day_matrix(t_out, 8, seed) for seed in range(4, 8)])

        def build(positioned):
            monkeypatch.setattr(ad, "positioned", positioned)
            out = model.forward(x, teacher=teacher)
            return out, ad.mse_loss(out, Tensor(teacher.astype(np.float64)))

        assert_same_bits(model.params.tensors(), build, ad.positioned, positioned_composite)

    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_one_day_training_gradient_against_finite_differences(self, kind):
        model = perturbed(build_model(toy_config(kind, t_out=1, seed=25)), 26)
        x, teacher = random_day_matrix(3, 8, 27), random_day_matrix(1, 8, 28)

        def loss():
            out = model.forward(x, teacher=teacher)
            return ad.mse_loss(out, Tensor(teacher.astype(np.float64)))

        assert finite_diff_check(loss, model.params.tensors()) < 1e-4
        ad.reset_tape()
        (sos,) = ad.backward(loss(), [model.params["decoder.sos"]])
        assert np.abs(sos).max() > 0

    # (sizes, the leading axes of x)
    @pytest.mark.parametrize("sizes, lead", [
        (SMALL, ()), (SMALL, (3,)), (SMALL, (2, 3)), (C7, (40,)), ({**SMALL, "t_out": 1}, (3,)),
        ({**SMALL, "t_in": 2, "t_out": 6}, (3,)), ({**SMALL, "n_layers": 1}, (3,)),
        ({**SMALL, "n_layers": 3}, (2, 3))], ids=["one_window", "windows", "grid", "c7",
                                                  "t_out_1", "t_out_6", "1_layer", "3_layers"])
    @pytest.mark.parametrize("kind", TRANSFORMER_KINDS)
    def test_predict_matches_full_prefix_decoding(self, kind, sizes, lead):
        model = build_model(ModelConfig(kind=kind, seed=21, **sizes))
        rng = np.random.default_rng(22)
        for t in model.params.tensors():
            t.values += rng.normal(scale=0.3, size=t.shape)  # open the zero gates
        v, t_in = sizes["vocab_size"], sizes["t_in"]
        x = (rng.random((*lead, t_in, 2 * v)) < 0.3).astype(np.uint8)
        predicted, reference = model.predict(x), full_prefix_predict(model, x)
        # day 1 runs the teacher-forced path's calls on the same shapes
        assert np.array_equal(predicted[..., :1, :], reference[..., :1, :])
        # a later step's one-row products may sum in another order
        np.testing.assert_allclose(predicted, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers, t_out", [(1, 1), (2, 4), (3, 5)])
    def test_predict_projects_each_row_once(self, monkeypatch, n_layers, t_out):
        model = build_model(toy_config("TransPPRZ", n_layers=n_layers, t_out=t_out))
        p = model.params
        # by id, so that a product by any copy of a weight raises KeyError
        names = {id(p[name].values): name for name in p.names()}
        projected = {}  # weight name -> rows of each product by it
        project = ad._project
        monkeypatch.setattr(ad, "_project", lambda x, w: projected.setdefault(
            names[id(w)], []).append(math.prod(x.shape[:-1])) or project(x, w))
        windows, t_in = 5, 3
        model.predict(np.stack([random_day_matrix(t_in, 8, seed) for seed in range(windows)]))
        attention = {name for name in projected if re.search(r"\.w[qkv]$", name)}
        assert len(attention) == 9 * n_layers
        for i in range(n_layers):
            for w in "qkv":
                assert projected[f"encoder.l{i}.attn.w{w}"] == [windows * t_in]
            # the memory's keys and values are projected before the first step
            for w in "kv":
                assert projected[f"decoder.l{i}.cross.w{w}"] == [windows * t_in]
            # then each step projects the newest position of every window once
            for w in "qkv":
                assert projected[f"decoder.l{i}.self.w{w}"] == [windows] * t_out
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


# what a checkpoint records it was fitted to besides its model config
TRAINED_ON = {"histories_sha256": "ab" * 32, "train_fraction": 0.9, "stride": 1, "train_epochs": 2,
              "train_batch_size": 4, "train_learning_rate": 0.01, "train_seed": 5}


def loaded(path, config):
    """A fresh build of ``config`` whose parameters are filled from the checkpoint at ``path``."""
    model = build_model(config)
    model.params.flat[:] = check_checkpoint(path, model, TRAINED_ON)
    return model


class TestCheckpoints:
    def trained(self, kind, **overrides):
        """A model whose parameters differ from a fresh build of its config."""
        model = build_model(toy_config(kind, **{"seed": 23, **overrides}))
        model.params.flat[:] = np.random.default_rng(24).normal(size=model.params.flat.size)
        return model

    def saved(self, tmp_path, kind="FCSum", **overrides):
        """(path, model, manifest line, payload) of a trained model saved to tmp_path."""
        path, model = tmp_path / "model.ckpt", self.trained(kind, **overrides)
        save_checkpoint(path, model, TRAINED_ON)
        return path, model, *path.read_bytes().split(b"\n", 1)

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        path, model, _, _ = self.saved(tmp_path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ArtifactError, match="truncated"):
                check_checkpoint(path, model, TRAINED_ON)

    @pytest.mark.parametrize("edit, message", CHECKPOINT_DEFECTS.values(), ids=CHECKPOINT_DEFECTS)
    def test_a_defective_checkpoint_rejected(self, tmp_path, edit, message):
        path, model, _, _ = self.saved(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ArtifactError, match=re.escape(f"{path}: {message}")):
            check_checkpoint(path, model, TRAINED_ON)

    def test_manifest_carries_magic_version_and_config(self, tmp_path):
        path, model, header, payload = self.saved(tmp_path, "TransRE", heads=4, seed=3)
        manifest = json.loads(header)
        assert list(manifest) == ["magic", "version", "kind", "vocab_size", "t_in", "t_out",
                                  "d_model", "heads", "n_layers", "d_ff", "hidden", "seed",
                                  "histories_sha256", "train_fraction", "stride", "train_epochs",
                                  "train_batch_size", "train_learning_rate", "train_seed"]
        assert manifest == {"magic": "otcforecast-checkpoint", "version": 9, "kind": "TransRE",
                            "vocab_size": 8, "t_in": 3, "t_out": 2, "d_model": 4, "heads": 4,
                            "n_layers": 1, "d_ff": 8, "hidden": 4, "seed": 3, **TRAINED_ON}
        # the payload is the packed vector, in names() order
        assert payload == model.params.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("edit", [
        ("otcforecast-checkpoint", "otcforecast-histories",
         "magic = 'otcforecast-histories', expected 'otcforecast-checkpoint'"),
        ('"version":9', '"version":8', "version = 8, expected 9"),
        ('"heads":2', '"heads":3', "heads = 3, expected 2"),
        ('"kind":"TransRE"', '"kind":"MLP"', "kind = 'MLP', expected 'TransRE'"),
        ('"hidden":4,', '', "hidden = None, expected 4"),
        ('"version":9,', '"version":9,"dropout":1,', "unknown manifest field 'dropout'"),
        ('"train_fraction":0.9', '"train_fraction":0.8', "train_fraction = 0.8, expected 0.9"),
        ('"histories_sha256":"abab', '"histories_sha256":"cdab',
         f"histories_sha256 = 'cd{'ab' * 31}', expected '{'ab' * 32}'"),
        ('}', ',"entries":[]}', "unknown manifest field 'entries'"),
        ('"train_epochs":2', '"train_epochs":1', "train_epochs = 1, expected 2"),
        ('"train_seed":5', '"train_seed":6', "train_seed = 6, expected 5"),
        ('"train_learning_rate":0.01', '"train_learning_rate":0.02',
         "train_learning_rate = 0.02, expected 0.01"),
    ])
    def test_bad_magic_version_or_config_rejected(self, tmp_path, edit):
        path, model, header, payload = self.saved(tmp_path, "TransRE")
        old, new, reason = edit
        assert old.encode() in header
        path.write_bytes(header.replace(old.encode(), new.encode(), 1) + b"\n" + payload)
        with pytest.raises(ArtifactError, match=re.escape(reason)):
            check_checkpoint(path, model, TRAINED_ON)


    def test_manifest_read_is_bounded(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        path.write_bytes(b"x" * (16 << 20))  # 16 MiB and no newline
        model = build_model(toy_config("FCSum"))
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactError, match="truncated manifest line"):
                check_checkpoint(path, model, TRAINED_ON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
    def test_a_save_cut_midway_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch, exc):
        path = tmp_path / "re.ckpt"
        save_checkpoint(path, self.trained("TransRE"), TRAINED_ON)
        with interrupted_writes(monkeypatch, path, exc), pytest.raises(exc):
            save_checkpoint(path, self.trained("TransRE", seed=4), TRAINED_ON)

    def test_saving_copies_no_parameter_vector(self, tmp_path):
        # numpy reports its buffers to tracemalloc; a copy of the C7
        # TransPPRZ vector would peak at 353 KB, a direct write at the
        # file's buffer and the manifest
        model = build_model(ModelConfig("TransPPRZ", **C7))
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "c7.ckpt", model, TRAINED_ON)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.params.flat.nbytes > 300_000
        assert peak < model.params.flat.nbytes
        reloaded = loaded(tmp_path / "c7.ckpt", model.config)
        assert reloaded.params.flat.tobytes() == model.params.flat.tobytes()

    def test_manifest_line_longer_than_the_limit_rejected(self, tmp_path):
        path, model, header, payload = self.saved(tmp_path)
        # JSON allows trailing spaces; the limit counts the newline
        path.write_bytes(header.ljust(MANIFEST_LIMIT - 1) + b"\n" + payload)
        values = check_checkpoint(path, model, TRAINED_ON)
        assert values.tobytes() == model.params.flat.tobytes()
        path.write_bytes(header.ljust(MANIFEST_LIMIT) + b"\n" + payload)
        with pytest.raises(ArtifactError, match="truncated manifest line"):
            check_checkpoint(path, model, TRAINED_ON)

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
        save_checkpoint(path, model, TRAINED_ON)
        copy = loaded(path, model.config)
        assert type(copy) is type(model) and copy.config == model.config
        assert copy.params.names() == model.params.names()
        assert copy.params.flat.tobytes() == model.params.flat.tobytes()
        with np.errstate(all="ignore"):  # arbitrary bits may overflow
            x = random_day_matrix(3, 8, 24)
            assert copy.predict(x).tobytes() == model.predict(x).tobytes()

    @CHECKPOINT_PROPERTY
    @given(checkpointed_models(), st.data())
    def test_truncation_at_any_offset_rejected(self, tmp_path, model, data):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, TRAINED_ON)
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="offset")])
        with pytest.raises(ArtifactError, match="truncated"):
            check_checkpoint(path, model, TRAINED_ON)

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
        save_checkpoint(path, model, TRAINED_ON)
        with pytest.raises(ArtifactError, match="non-finite parameter value"):
            check_checkpoint(path, model, TRAINED_ON)


class TestFlatParameters:
    def test_flat_views_every_tensor_in_names_order(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "gate": np.asarray(7.0), "b": np.ones(4)}
        tensors = {name: Tensor(values, requires_grad=True) for name, values in arrays.items()}
        params = Parameters(tensors)
        assert params.names() == ["w", "gate", "b"]
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.reshape(-1) for a in arrays.values()]))
        for name, tensor in tensors.items():
            # the very tensor passed in, its values now a view of flat
            assert params[name] is tensor and np.shares_memory(tensor.values, params.flat), name
        arrays["w"][0, 0] = -1.0  # the constructor copied the values
        assert params["w"].values[0, 0] == 0.0

    def test_scalar_gate_packs_as_a_0d_view(self):
        params = build_model(toy_config("TransRE")).params
        flat = params.flat
        gate = params["encoder.l0.gate"].values
        assert gate.shape == () and np.shares_memory(gate, flat)
        flat[:] = 7.0
        assert params["encoder.l0.gate"].item() == 7.0

    @pytest.mark.parametrize("copy_model", [
        pytest.param(lambda model: pickle.loads(pickle.dumps(model)), id="pickle"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_a_copied_model_trains_apart_from_its_original(self, kind, copy_model):
        model = build_model(toy_config(kind))
        model.params.flat[:] = np.random.default_rng(5).normal(scale=0.5,
                                                               size=model.params.flat.size)
        copied = copy_model(model)
        params = copied.params
        assert params.flat.tobytes() == model.params.flat.tobytes()
        for name, tensor in zip(params.names(), params.tensors()):
            assert np.shares_memory(tensor.values, params.flat), name
        days = random_day_matrix(5 * 8, 8, seed=6).reshape(8, 5, 16)
        samples = [Sample("D1", i, x[:3], x[3:]) for i, x in enumerate(days)]
        inputs = np.stack([s.input_days for s in samples])
        before, copied_before = model.predict(inputs), copied.predict(inputs)
        train(copied, samples, TrainSpec(epochs=2, batch_size=4, learning_rate=0.05))
        assert not np.array_equal(copied.predict(inputs), copied_before)
        assert np.array_equal(model.predict(inputs), before)

    @pytest.mark.parametrize("copy_model", [
        pytest.param(lambda model: model, id="built"),
        pytest.param(lambda model: pickle.loads(pickle.dumps(model)), id="pickle"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_views_of_flat_are_the_tensors_own_values(self, kind, copy_model):
        model = build_model(toy_config(kind))
        params = copy_model(model).params
        flat, offset = params.flat, 0
        assert flat.dtype == np.float64 and flat.ndim == 1
        views = params.views(flat)
        assert len(views) == len(params.names())
        # each tensor's values, and so harness.epochs' gradient views, lie in
        # flat one after another in names() order
        for name, view, tensor in zip(params.names(), views, params.tensors()):
            values = tensor.values
            assert tensor is params[name] and view.dtype == np.float64, name
            assert view.__array_interface__ == values.__array_interface__, name
            assert values.__array_interface__["data"][0] == (
                flat.__array_interface__["data"][0] + 8 * offset), name
            assert (params is model.params) == np.shares_memory(view, model.params.flat), name
            offset += values.size
        assert offset == flat.size

    @pytest.mark.parametrize("vector", [
        np.zeros(3), np.zeros(5), np.zeros((2, 2)), np.zeros(8)[::2],
    ], ids=["short", "long", "2-D", "strided"])
    def test_views_refuse_a_vector_of_another_layout(self, vector):
        params = Parameters({"w": Tensor(np.ones((2, 1)), requires_grad=True),
                             "b": Tensor(np.ones(2), requires_grad=True)})
        with pytest.raises(ContractError, match=r"views\(\) needs a C-contiguous vector of 4"):
            params.views(vector)
        vector = np.arange(4.0)
        w, b = params.views(vector)
        assert w.shape == (2, 1) and np.shares_memory(w, vector) and np.shares_memory(b, vector)
        np.testing.assert_array_equal(np.concatenate([w.reshape(-1), b]), vector)

    def test_duplicate_name_rejected_at_build(self):
        b = _Builder(np.random.default_rng(0))
        b.matrix("head.w", 2, 2)
        with pytest.raises(ContractError, match="duplicate parameter name 'head.w'"):
            b.zeros("head.w", 2)


def transformer_layout(kind, n_layers):
    """[(name, shape), ...] in names() order of a toy Transformer: the embedding,
    the start row, each encoder layer, then each decoder layer, then the head;
    per layer its attention blocks, feed-forward, and norms or one gate."""
    rows = ([("embed.w", (16, 4)), ("embed.b", (4,))] if kind in ("TransFV", "TransRE")
            else [("cte.bonds", (8, 4)), ("cte.actions", (2, 4))]) + [("decoder.sos", (4,))]
    gate = {"TransRE": (), "TransPPRZ": (4,)}.get(kind)
    for stack, blocks in (("encoder", ("attn",)), ("decoder", ("self", "cross"))):
        for layer in (f"{stack}.l{i}" for i in range(n_layers)):
            rows += [(f"{layer}.{block}.{w}", (4, 4) if w[0] == "w" else (4,))
                     for block in blocks for w in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")]
            rows += [(f"{layer}.ff.w1", (4, 8)), (f"{layer}.ff.b1", (8,)),
                     (f"{layer}.ff.w2", (8, 4)), (f"{layer}.ff.b2", (4,))]
            rows += ([(f"{layer}.norm{j}.{p}", (4,)) for j in range(1, len(blocks) + 2)
                      for p in ("gamma", "beta")] if gate is None else [(f"{layer}.gate", gate)])
    return rows + [("head.w", (4, 16)), ("head.b", (16,))]


# [(name, shape), ...] in names() order per kind at toy_config
LAYOUTS = {
    "FCSum": [("fc.w1", (16, 4)), ("fc.b1", (4,)), ("fc.w2", (4, 4)), ("fc.b2", (4,)),
              ("fc.w3", (4, 16)), ("fc.b3", (16,))],
    "FCConcat": [("fc.w1", (48, 4)), ("fc.b1", (4,)), ("fc.w2", (4, 4)), ("fc.b2", (4,)),
                 ("fc.w3", (4, 16)), ("fc.b3", (16,))],
    "LSTM": [("lstm.fwd.wx", (16, 16)), ("lstm.fwd.wh", (4, 16)), ("lstm.fwd.b", (16,)),
             ("readout.w", (4, 16)), ("readout.b", (16,))],
    "BiLSTM": [("lstm.fwd.wx", (16, 16)), ("lstm.fwd.wh", (4, 16)), ("lstm.fwd.b", (16,)),
               ("lstm.bwd.wx", (16, 16)), ("lstm.bwd.wh", (4, 16)), ("lstm.bwd.b", (16,)),
               ("readout.w", (8, 16)), ("readout.b", (16,))],
}

# SHA-256 of the initial flat.tobytes() per (kind, n_layers) at toy_config,
# recorded with numpy 2.4.6
DIGESTS = {
    ("FCSum", 1): "8b20e9662a2949d20a812e13eb4ed6b6b636263940d29b6a4487badbca891b03",
    ("FCConcat", 1): "99084896279c2e1bfd38ac29591e2a3fe8ef5d23788798a9c86e83cb55b4901b",
    ("LSTM", 1): "bd575461b7ed7c988991d3f3e3e15fe8e827119b9fd309c4f4c2438871d7c219",
    ("BiLSTM", 1): "7f42f4731a1b7601644e5ad4e3a2d848fb661a8ebe39bb4fd5cf8058e9be2d9b",
    ("TransFV", 1): "348f7bf7abb4695ec0ff4c45489f9e669755af6aa22340470e2847aeb4db245f",
    ("TransCTE", 1): "bfdf119a4b8a0badf05060c6f5b4660a433fac134f9604b4f172cf66052af3ee",
    ("TransRE", 1): "2c7a07dba32ec34289857d18b1e6f2ecc2b9c511cffd861eea2e3692360e9973",
    ("TransPPRZ", 1): "db6879ea9461338c564c51e75170c90dff03eee6cd999c32d3a6d3aecb1f4c7b",
    ("TransFV", 2): "144a4f8cd89b1445d9253f229e83506a9e83e1c49cd9dbda11272271fad9d467",
    ("TransCTE", 2): "00469b81429d60f7925a00e38dac9e0242488015809e6492ba50da1f25557589",
    ("TransRE", 2): "f5b0947fecaf58e1b7e11bf5b3ae802ba0c9e4997346fe76a42dd355e63ce357",
    ("TransPPRZ", 2): "b2e9041ee61925e20d4d93eece0797ae1aeab67f0146f5a17a4fbdb66bbd9828",
}


class TestParameterLayout:
    """A checkpoint stores ``flat`` in ``names()`` order and nothing else, so
    the names, shapes, order and initial draws are pinned per kind: among
    them each gate's shape and zero start."""

    @pytest.mark.parametrize("kind, n_layers", [
        *(pytest.param(kind, 1, id=kind) for kind in MODEL_KINDS),
        *(pytest.param(kind, 2, id=f"{kind}-n_layers=2") for kind in TRANSFORMER_KINDS)])
    def test_names_shapes_and_initial_values_are_pinned(self, kind, n_layers):
        params = build_model(toy_config(kind, n_layers=n_layers)).params
        layout = LAYOUTS[kind] if kind in LAYOUTS else transformer_layout(kind, n_layers)
        assert [(name, params[name].shape) for name in params.names()] == layout
        assert hashlib.sha256(params.flat.tobytes()).hexdigest() == DIGESTS[kind, n_layers]
        # another seed draws other values of the same layout, the same ones each time
        a, b = (build_model(toy_config(kind, n_layers=n_layers, seed=42)).params for _ in "ab")
        assert [(name, a[name].shape) for name in a.names()] == layout
        assert a.flat.tobytes() == b.flat.tobytes() != params.flat.tobytes()

    def test_every_kind_is_pinned(self):
        assert list(LAYOUTS) + list(TRANSFORMER_KINDS) == list(MODEL_KINDS)
        assert {kind for kind, _ in DIGESTS} == set(MODEL_KINDS)


def test_readme_model_zoo_lists_every_kind_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## The model zoo", 1)[1].split("\n\n")[1]
    kinds = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert tuple(kinds) == MODEL_KINDS
