"""Model-zoo contracts: construction, embeddings, residual schemes,
causality, and checkpoint round-trips."""

import numpy as np
import pytest

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor
from otcforecast.errors import ArtifactError, ConfigurationError, ContractError, ShapeMismatchError
from otcforecast.models import (
    MODEL_KINDS,
    ModelConfig,
    TransformerModel,
    build_model,
    cte_encode,
    load_checkpoint,
    positional_encoding,
    residual_block,
    save_checkpoint,
)


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def toy_config(kind, **overrides):
    base = dict(kind=kind, vocab_size=8, t_in=3, t_out=2,
                d_model=4, heads=2, n_layers=1, d_ff=8, hidden=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_day_matrix(rows, vocab_size, seed, density=0.3):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, 2 * vocab_size)) < density).astype(np.uint8)


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
            a = build_model(toy_config(kind, seed=42)).params.state_dict()
            b = build_model(toy_config(kind, seed=42)).params.state_dict()
            assert set(a) == set(b)
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_param_count_is_config_pure(self):
        for kind in MODEL_KINDS:
            c1 = build_model(toy_config(kind, seed=1)).params.count_values()
            c2 = build_model(toy_config(kind, seed=99)).params.count_values()
            assert c1 == c2

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(kind="TransXXL", vocab_size=4, t_in=2, t_out=2)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            toy_config("TransFV", d_model=6, heads=4)


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
        for gate in "ifgo":
            model.params[f"lstm.fwd.wx_{gate}"].values[...] = wx
            model.params[f"lstm.fwd.wh_{gate}"].values[...] = wh
            model.params[f"lstm.fwd.b_{gate}"].values[...] = b
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


def embedding_bag_cte(days, bond_table, action_table):
    """Reference co-trading embedding: the per-day embedding_bag loop that
    the dense cte_encode product replaced, on a (..., 2V) stack of days."""
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
        return cte_encode(day, self.bond_table, self.action_table)

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

    def test_free_function_matches_model_path(self):
        days = random_day_matrix(3, 8, 21)
        np.testing.assert_array_equal(self.encode(days).values,
                                      self.model.embed_days(days).values)

    def test_dense_product_matches_embedding_bag_loop(self):
        # a (2, 3) stack of days with an empty day in it; float64 sums of a
        # few table rows in another order agree to well under 1e-12
        days = random_day_matrix(6, 8, 22, density=0.4).reshape(2, 3, 16)
        days[1, 2] = 0
        params = [self.bond_table, self.action_table]
        grads = []
        for encode in (self.encode, lambda d: embedding_bag_cte(d, *params)):
            ad.reset_tape()
            ad.zero_grads(params)
            out = encode(days)
            assert out.shape == (2, 3, 4)
            ad.backward(ad.sum_all(ad.mul(out, out)))
            grads.append([out.values] + [p.grad.copy() for p in params])
        for dense, loop in zip(*grads):
            np.testing.assert_allclose(dense, loop, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(grads[0][0][1, 2], np.zeros(4))

    def test_tables_shared_between_encoder_and_decoder(self):
        x = random_day_matrix(3, 8, 4)
        teacher = random_day_matrix(2, 8, 5)
        ad.reset_tape()
        ad.zero_grads(self.model.params.tensors())
        out = self.model.forward(x, teacher=teacher)
        ad.backward(ad.sum_all(out))
        # one shared table receives gradient from both sides of the model
        assert np.abs(self.model.params["cte.bonds"].grad).sum() > 0


class TestResidualSchemes:
    def test_zero_vector_gate_is_identity(self):
        x = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
        fx = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
        out = residual_block(x, fx, "vector", gate=Tensor(np.zeros(4), requires_grad=True))
        assert np.array_equal(out.values, x.values)

    def test_constant_vector_equals_scalar_gate(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)))
        fx = Tensor(rng.normal(size=(3, 4)))
        for c in (0.37, -1.2, 2.0):
            vec = residual_block(x, fx, "vector", gate=Tensor(np.full(4, c)))
            scal = residual_block(x, fx, "scalar", gate=Tensor(np.asarray(c)))
            np.testing.assert_allclose(vec.values, scal.values, atol=1e-12)

    def test_pointwise_arithmetic_example(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        fx = Tensor(np.array([[0.5, -0.5]]))
        out = residual_block(x, fx, "vector", gate=Tensor(np.array([2.0, 0.0])))
        assert out.values.tolist() == [[2.0, 2.0]]

    def test_norm_mode_normalizes_sum(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        fx = Tensor(np.array([[0.0, 0.0]]))
        out = residual_block(x, fx, "norm",
                             gamma=Tensor(np.ones(2)), beta=Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            residual_block(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), "batch")


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
                ad.zero_grads(params)
                loss = ad.mse_loss(model.forward(x, teacher=teacher),
                                   Tensor(teacher.astype(float)))
                assert loss.item() > 0
                ad.backward(loss)

            loss_grads()
            decoder_gates = [n for n in model.params.names()
                             if n.endswith(".gate") and n.startswith("decoder")]
            assert decoder_gates
            for name in decoder_gates:
                assert np.abs(model.params[name].grad).max() > 0, name

            ad.adam_step(params, [p.grad for p in params],
                         ad.OptimizerState(learning_rate=0.01))
            loss_grads()
            for name in model.params.names():
                if name.endswith(".gate"):
                    assert np.abs(model.params[name].grad).max() > 0, name

    def test_pprz_reduces_to_scalar_gate_model(self):
        cfg = toy_config("TransPPRZ", n_layers=2, seed=5)
        pprz = build_model(cfg)
        twin = TransformerModel(cfg, embed_mode="cte", residual_mode="scalar")
        state = pprz.params.state_dict()
        rng = np.random.default_rng(18)
        constants = {}
        for name in list(state):
            if name.endswith(".gate"):
                c = float(rng.normal(scale=0.5))
                constants[name] = c
                state[name] = np.full(4, c)
        pprz.params.load_state(state)
        twin_state = {
            name: (np.asarray(constants[name]) if name.endswith(".gate") else state[name])
            for name in state
        }
        twin.params.load_state(twin_state)
        for trial in range(5):
            x = random_day_matrix(3, 8, 100 + trial)
            teacher = random_day_matrix(2, 8, 200 + trial)
            a = pprz.forward(x, teacher=teacher).values
            b = twin.forward(x, teacher=teacher).values
            assert np.abs(a - b).max() < 1e-12
            np.testing.assert_array_equal(pprz.predict(x), twin.predict(x))

    def test_trace_collects_all_layers(self):
        model = build_model(toy_config("TransPPRZ", n_layers=2))
        trace = []
        model.forward(random_day_matrix(3, 8, 19),
                      teacher=random_day_matrix(2, 8, 20), trace=trace)
        assert [name for name, _ in trace] == ["enc0", "enc1", "dec0", "dec1"]


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        for kind in ("FCSum", "BiLSTM", "TransPPRZ"):
            model = build_model(toy_config(kind, seed=23))
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(path, model.params)
            state = load_checkpoint(path)
            fresh = build_model(toy_config(kind, seed=77))
            fresh.params.load_state(state)
            for name, tensor in model.params.items():
                loaded = fresh.params[name].values
                assert loaded.shape == tensor.values.shape
                assert np.array_equal(loaded, tensor.values)
                assert loaded.tobytes() == tensor.values.tobytes()

    def test_name_mismatch_rejected(self, tmp_path):
        model = build_model(toy_config("TransRE"))
        path = tmp_path / "re.ckpt"
        save_checkpoint(path, model.params)
        other = build_model(toy_config("TransPPRZ"))
        with pytest.raises(ContractError):
            other.params.load_state(load_checkpoint(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        model = build_model(toy_config("FCSum"))
        path = tmp_path / "fc.ckpt"
        save_checkpoint(path, model.params)
        bigger = build_model(toy_config("FCSum", hidden=6))
        with pytest.raises(ShapeMismatchError):
            bigger.params.load_state(load_checkpoint(path))

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        save_checkpoint(path, build_model(toy_config("FCSum")).params)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ArtifactError, match="truncated"):
                load_checkpoint(path)

    def test_malformed_manifest_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "fc.ckpt"
        save_checkpoint(path, build_model(toy_config("FCSum")).params)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        shifted = header.replace(b'"offset":0', b'"offset":8', 1)
        for corrupt, reason in ((blob + b"\0", "trailing"), (b"{" + blob, "malformed"),
                                (b'{"entries":3}\n' + payload, "malformed"),
                                (shifted + b"\n" + payload, "offset")):
            path.write_bytes(corrupt)
            with pytest.raises(ArtifactError, match=reason):
                load_checkpoint(path)
