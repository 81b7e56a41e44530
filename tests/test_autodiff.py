"""Engine tests: forward values against hand oracles, gradients against
central finite differences, and the semantics of backward()."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otcforecast.autodiff as ad
from otcforecast.autodiff import OptimizerState, Tensor, adam_step, backward
from otcforecast.errors import ConfigurationError, ContractError, ShapeMismatchError
from otcforecast.models import ModelConfig, _cte_inputs, build_model

from helpers import (SUBLAYER_CASES, cte_inputs_reference, finite_diff_check,
                     layer_norm_reference, mse_reference, rand, softmax_reference,
                     softmax_vjp_reference, sublayer_case, sublayer_op, sum_all)


class TestFiniteDiffOracle:
    """Validate the gradient oracle itself before using it everywhere else."""

    def test_linear_is_exact(self):
        w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        err = finite_diff_check(lambda: sum_all(w), [w])
        assert err < 1e-10

    def test_quadratic_matches_hand_value(self):
        # f(w) = sum(w*w) at w=3: analytic gradient 6, and the central
        # difference ((3+e)^2 - (3-e)^2) / 2e equals 6 up to rounding.
        w = Tensor([3.0], requires_grad=True)
        eps = 1e-4
        numeric = ((3 + eps) ** 2 - (3 - eps) ** 2) / (2 * eps)
        assert abs(numeric - 6.0) < 1e-6
        err = finite_diff_check(lambda: sum_all(ad.mul(w, w)), [w], eps=eps)
        assert err < 1e-8


class TestMatmul:
    def test_identity_exact(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_exact_for_random_integer_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 8, size=2))
            a = Tensor(rng.integers(-99, 100, size=(m, n)).astype(float))
            assert np.array_equal(ad.matmul(a, Tensor(np.eye(n))).values, a.values)

    def test_direct_arithmetic(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError) as exc:
            ad.matmul(rand((2, 3), 0), rand((2, 2), 1))
        assert "(2, 3)" in str(exc.value) and "(2, 2)" in str(exc.value)

    def test_gradient_against_finite_differences(self):
        a = rand((3, 4), 2)
        b = rand((4, 2), 3)
        err = finite_diff_check(lambda: sum_all(ad.matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_no_gradient_for_a_constant_input(self):
        w, g = rand((4, 5), 4), np.random.default_rng(5).normal(size=(2, 3, 5))
        grads = []
        for requires_grad in (False, True):
            x = rand((2, 3, 4), 6, grad=requires_grad)
            ad.reset_tape()
            ad.matmul(x, w)
            (entry,) = ad._TAPE
            grads.append(entry.vjp(g))
        (skipped, dw), (dx, dw_reference) = grads
        assert skipped is None and dx.shape == (2, 3, 4)
        assert np.array_equal(dw, dw_reference)


class TestLinear:
    """The one-entry affine op against the ``add_rowvec(matmul(x, w), b)`` it fuses."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("x_grad", [True, False], ids=["x", "constant_x"])
    def test_outputs_and_gradients_match_the_composite_bit_for_bit(self, lead, x_grad):
        x, w, b = rand((*lead, 5), 70, grad=x_grad), rand((5, 3), 71), rand((3,), 72)
        target = Tensor(np.random.default_rng(73).normal(size=(*lead, 3)))
        wrt = [x, w, b] if x_grad else [w, b]
        results = []
        for affine in (ad.linear, lambda x, w, b: ad.add_rowvec(ad.matmul(x, w), b)):
            ad.reset_tape()
            out = ad.tanh(affine(x, w, b))
            results.append([out.values, *backward(ad.mse_loss(out, target), wrt)])
        fused, composite = results
        for got, expected in zip(fused, composite):
            assert np.array_equal(got, expected)

    def test_one_call_records_one_entry_and_skips_a_constant_input(self):
        ad.linear(rand((2, 3, 4), 74, grad=False), rand((4, 5), 75), rand((5,), 76))
        (entry,) = ad._TAPE
        assert entry.name == "linear"
        dx, dw, db = entry.vjp(np.ones((2, 3, 5)))
        assert dx is None and dw.shape == (4, 5) and db.shape == (5,)

    def test_gradient_against_finite_differences(self):
        x, w, b = rand((2, 3, 4), 77), rand((4, 5), 78), rand((5,), 79)
        assert finite_diff_check(lambda: sum_all(ad.tanh(ad.linear(x, w, b))), [x, w, b]) < 1e-6

    @pytest.mark.parametrize("shapes", [((2, 4), (4, 5), (4,)), ((2, 4), (3, 5), (5,)),
                                        ((2, 4), (4,), (4,)), ((2, 4), (4, 5), (1, 5))])
    def test_shape_errors(self, shapes):
        x, w, b = (rand(shape, seed) for seed, shape in enumerate(shapes))
        with pytest.raises(ShapeMismatchError):
            ad.linear(x, w, b)


class TestElementwise:
    def test_mul_annihilator(self):
        out = ad.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
        assert out.values.tolist() == [0.0, 0.0, 0.0]

    def test_tanh_at_origin(self):
        assert ad.tanh(Tensor([0.0])).values.tolist() == [0.0]

    def test_mul_pointwise(self):
        out = ad.mul(Tensor([1.0, 2.0]), Tensor([2.0, 0.5]))
        assert out.values.tolist() == [2.0, 1.0]

    def test_scale(self):
        assert ad.scale(Tensor([2.0, -4.0]), 0.5).values.tolist() == [1.0, -2.0]

    def test_binary_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestEmbeddingBag:
    def test_empty_set_is_zero_vector(self):
        table = rand((4, 3), 5)
        out = ad.embedding_bag(table, ())
        assert out.values.tolist() == [0.0, 0.0, 0.0]
        assert not out.requires_grad

    def test_singleton_returns_row(self):
        table = rand((5, 4), 6)
        out = ad.embedding_bag(table, (3,))
        assert np.array_equal(out.values, table.values[3])

    def test_pair_is_vector_sum(self):
        table = rand((4, 3), 7)
        expected = table.values[0] + table.values[2]
        out = ad.embedding_bag(table, (0, 2))
        np.testing.assert_array_equal(out.values, expected)

    def test_out_of_range_names_offender(self):
        with pytest.raises(IndexError, match="7"):
            ad.embedding_bag(rand((4, 3), 8), (1, 7))

    def test_disjoint_union_additivity_exact(self):
        # Integer-valued table so float addition is exact regardless of order.
        rng = np.random.default_rng(9)
        table = Tensor(rng.integers(-5, 6, size=(12, 4)).astype(float), requires_grad=True)
        for _ in range(25):
            perm = rng.permutation(12)
            s1 = set(perm[:4].tolist())
            s2 = set(perm[4:9].tolist())
            lhs = ad.embedding_bag(table, s1 | s2).values
            rhs = ad.embedding_bag(table, s1).values + ad.embedding_bag(table, s2).values
            assert np.array_equal(lhs, rhs)

    def test_backward_scatters_to_rows(self):
        table = rand((4, 3), 10)
        (grad,) = backward(sum_all(ad.embedding_bag(table, (1, 3))), [table])
        expected = np.zeros((4, 3))
        expected[[1, 3]] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_gradient(self):
        table = rand((6, 4), 11)
        err = finite_diff_check(
            lambda: sum_all(ad.mul(ad.embedding_bag(table, (0, 2, 5)),
                                   ad.embedding_bag(table, (0, 2, 5)))),
            [table],
        )
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_slice_maps_to_zero(self):
        out = ad.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_two_point_slice(self):
        # mean 2, population std 1, so [1, 3] normalizes to [-1, 1]
        out = ad.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-5)

    def test_beta_only(self):
        out = ad.layer_norm(Tensor([0.0, 0.0]), Tensor(np.ones(2)), Tensor([7.0, 7.0]))
        np.testing.assert_allclose(out.values, [7.0, 7.0], atol=1e-12)

    def test_gradient_2d(self):
        x = rand((3, 5), 12)
        gamma = rand((5,), 13)
        beta = rand((5,), 14)
        err = finite_diff_check(
            lambda: sum_all(ad.mul(ad.layer_norm(x, gamma, beta),
                                   ad.layer_norm(x, gamma, beta))),
            [x, gamma, beta],
        )
        assert err < 1e-6


class TestMseLoss:
    def test_perfect_fit(self):
        assert ad.mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0

    def test_half(self):
        assert ad.mse_loss(Tensor([1.0, 0.0]), Tensor([0.0, 0.0])).item() == 0.5

    def test_gradient_formula(self):
        # d/dpred mean((pred - target)^2) = 2 (pred - target) / N
        pred = Tensor([1.0, 0.0], requires_grad=True)
        (grad,) = backward(ad.mse_loss(pred, Tensor([0.0, 0.0])), [pred])
        np.testing.assert_allclose(grad, [1.0, 0.0], atol=1e-12)

    def test_no_gradient_for_a_constant_target(self):
        pred = rand((3, 4), 7)
        grads = []
        for requires_grad in (False, True):
            ad.reset_tape()
            loss = ad.mse_loss(pred, rand((3, 4), 8, grad=requires_grad))
            (entry,) = ad._TAPE
            grads.append((entry.vjp(np.ones(())), backward(loss, [pred])[0]))
        ((dpred, skipped), grad), ((dpred_reference, dtarget), grad_reference) = grads
        assert skipped is None and dtarget.shape == (3, 4)
        assert np.array_equal(dpred, dpred_reference) and np.array_equal(grad, grad_reference)

    def test_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            ad.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestSoftmaxAndAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            s = Tensor(rng.normal(scale=5.0, size=(6, 6)))
            y = ad.softmax_rows(s).values
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            y = ad.softmax_rows(s, causal=True).values
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_causal_mask_zeroes_future(self):
        y = ad.softmax_rows(rand((4, 4), 16, grad=False), causal=True).values
        assert np.array_equal(np.triu(y, k=1), np.zeros((4, 4)))

    def test_causal_mask_refuses_non_square_scores(self):
        for rows, cols in ((1, 5), (4, 5), (6, 5)):
            with pytest.raises(ShapeMismatchError, match="square"):
                ad.softmax_rows(rand((2, rows, cols), 28, grad=False), causal=True)
        params = self._attention_params(4, 31)
        x = rand((3, 5, 4), 32, grad=False)
        for q, k in ((x, Tensor(x.values[..., 1:, :])), (Tensor(x.values[..., -1:, :]), x)):
            with pytest.raises(ShapeMismatchError, match="square"):
                ad.multi_head_attention(q, k, k, heads=2, causal=True, **params)

    def _attention_params(self, d, seed, identity=False):
        if identity:
            w = lambda: Tensor(np.eye(d), requires_grad=True)
        else:
            rng = np.random.default_rng(seed)
            w = lambda: Tensor(rng.normal(scale=0.5, size=(d, d)), requires_grad=True)
        zeros = lambda: Tensor(np.zeros(d), requires_grad=True)
        return dict(wq=w(), bq=zeros(), wk=w(), wv=w(), bv=zeros(), wo=w(), bo=zeros())

    def test_single_position_returns_value_projection(self):
        d = 4
        params = self._attention_params(d, 17)
        q = rand((1, d), 18, grad=False)
        v = rand((1, d), 19, grad=False)
        out = ad.multi_head_attention(q, q, v, heads=2, **params)
        expected = (v.values @ params["wv"].values + params["bv"].values) \
            @ params["wo"].values + params["bo"].values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_identical_keys_average_values(self):
        d = 4
        params = self._attention_params(d, 20, identity=True)
        q = Tensor(np.tile([[0.3, -0.2, 0.5, 0.1]], (2, 1)))
        v = Tensor([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        out = ad.multi_head_attention(q, q, v, heads=2, **params)
        expected = np.tile(v.values.mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_causal_position_zero_equals_single_position(self):
        d = 4
        params = self._attention_params(d, 21)
        x = rand((3, d), 22, grad=False)
        full = ad.multi_head_attention(x, x, x, heads=2, causal=True, **params)
        first = Tensor(x.values[:1])
        solo = ad.multi_head_attention(first, first, first, heads=2, **params)
        np.testing.assert_allclose(full.values[0], solo.values[0], atol=1e-12)

    @pytest.mark.parametrize("q, k, v", [
        ((4,), (4,), (4,)),  # no position axis
        ((3, 4), (5, 4), (4, 4)),  # keys and values of different lengths
        ((3, 4), (2, 5, 4), (2, 5, 4)),  # more axes on the keys
        ((2, 3, 4), (3, 5, 4), (3, 5, 4)),  # other leading axes
        ((3, 4), (5, 6), (5, 6)),  # other widths
    ])
    def test_operands_that_do_not_fit_rejected(self, q, k, v):
        params = self._attention_params(4, 25)
        with pytest.raises(ShapeMismatchError, match="do not fit"):
            ad.multi_head_attention(rand(q, 26), rand(k, 27), rand(v, 28), heads=2, **params)

    def test_indivisible_heads_rejected(self):
        d = 4
        params = self._attention_params(d, 23)
        x = rand((2, d), 24)
        with pytest.raises(ConfigurationError):
            ad.multi_head_attention(x, x, x, heads=3, **params)

    def test_gradient_with_causal_mask(self):
        d = 4
        params = self._attention_params(d, 25)
        x = rand((3, d), 26)
        target = Tensor(np.random.default_rng(27).normal(size=(3, d)))

        def f():
            out = ad.multi_head_attention(x, x, x, heads=2, causal=True, **params)
            return ad.mse_loss(out, target)

        err = finite_diff_check(f, [x, *params.values()])
        assert err < 1e-6


def attention_with_key_bias(q, k, v, *, wq, bq, wk, bk=None, wv, bv, wo, bo, heads, causal):
    """The attention op as a composite of tape primitives, kept as the
    reference for the fused op: with a key bias ``bk`` it is the op as it
    was before the bias went, and with ``bk=None`` it is the composite the
    fused op reproduces bit for bit."""
    def split_heads(x, keys=False):
        *lead, t, d = x.shape
        n = len(lead)
        order = (n + 1, n + 2, n) if keys else (n + 1, n, n + 2)
        return ad.transpose(ad.reshape(x, (*lead, t, heads, d // heads)), (*range(n), *order))

    d_model = q.shape[-1]
    qh = split_heads(ad.add_rowvec(ad.matmul(q, wq), bq))
    keys = ad.matmul(k, wk)
    kh = split_heads(keys if bk is None else ad.add_rowvec(keys, bk), keys=True)
    vh = split_heads(ad.add_rowvec(ad.matmul(v, wv), bv))
    scores = ad.scale(ad.matmul(qh, kh), 1.0 / np.sqrt(d_model // heads))
    context = ad.matmul(ad.softmax_rows(scores, causal=causal), vh)
    *lead, _, t_q, _ = context.shape
    n = len(lead)
    merged = ad.reshape(ad.transpose(context, (*range(n), n + 1, n, n + 2)),
                        (*lead, t_q, d_model))
    return ad.add_rowvec(ad.matmul(merged, wo), bo)


class TestKeyBias:
    """Softmax ignores a per-query constant, so a key bias, which adds q·bk to
    every score of query q, cannot change the attention output."""

    def inputs(self, causal):
        rng = np.random.default_rng(40)
        params = {n: Tensor(rng.normal(scale=0.5, size=(4, 4) if n[0] == "w" else (4,)),
                            requires_grad=True)
                  for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
        x = rand((2, 3, 4), 41)
        keys = x if causal else rand((2, 5, 4), 42)
        return params, x, keys

    @pytest.mark.parametrize("causal", [True, False])
    def test_random_key_bias_changes_nothing(self, causal):
        params, x, keys = self.inputs(causal)
        bk = rand((4,), 43)
        target = Tensor(np.random.default_rng(44).normal(size=(2, 3, 4)))
        outputs = []
        for attend in (ad.multi_head_attention, functools.partial(attention_with_key_bias, bk=bk)):
            ad.reset_tape()
            out = attend(x, keys, keys, heads=2, causal=causal, **params)
            grads = backward(ad.mse_loss(out, target), [x, keys, *params.values()])
            outputs.append((out.values, grads))
        (out, grads), (reference, reference_grads) = outputs
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)
        for grad, reference_grad in zip(grads, reference_grads):
            np.testing.assert_allclose(grad, reference_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [True, False])
    def test_zero_key_bias_is_bit_identical(self, causal):
        params, x, keys = self.inputs(causal)
        out = ad.multi_head_attention(x, keys, keys, heads=2, causal=causal, **params)
        reference = attention_with_key_bias(x, keys, keys, bk=Tensor(np.zeros(4)), heads=2,
                                            causal=causal, **params)
        assert np.array_equal(out.values, reference.values)


class TestFusedAttention:
    """The one-entry attention op against the composite it replaced."""

    def params(self, seed):
        rng = np.random.default_rng(seed)
        return {n: Tensor(rng.normal(scale=0.5, size=(4, 4) if n[0] == "w" else (4,)),
                          requires_grad=True)
                for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("cross", [False, True], ids=["causal_self", "cross"])
    def test_outputs_and_gradients_match_the_composite_bit_for_bit(self, lead, cross):
        params = self.params(50)
        x = rand((*lead, 3, 4), 51)
        # self-attention reads one tensor three times; cross-attention reads
        # the memory as keys and values, over a different length
        memory = rand((*lead, 5, 4), 52) if cross else x
        target = Tensor(np.random.default_rng(53).normal(size=(*lead, 3, 4)))
        results = []
        for attend in (ad.multi_head_attention, attention_with_key_bias):
            ad.reset_tape()
            # the residual add makes x's gradient a sum over four contributions
            out = ad.add(x, attend(x, memory, memory, heads=2, causal=not cross, **params))
            wrt = [x, memory, *params.values()] if cross else [x, *params.values()]
            results.append([out.values, *backward(ad.mse_loss(out, target), wrt)])
        fused, composite = results
        assert len(fused) == len(composite)
        for got, expected in zip(fused, composite):
            assert np.array_equal(got, expected)

    def test_gradient_against_finite_differences(self):
        params = self.params(54)
        q, k, v = rand((2, 3, 4), 55), rand((2, 5, 4), 56), rand((2, 5, 4), 57)
        target = Tensor(np.random.default_rng(58).normal(size=(2, 3, 4)))

        def f():
            return ad.mse_loss(ad.multi_head_attention(q, k, v, heads=2, **params), target)

        assert finite_diff_check(f, [q, k, v, *params.values()]) < 1e-6

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_helpers_on_keys_and_values_projected_once_match_the_op(self, lead):
        # inference projects the memory's keys and values once, and each
        # decoded row's query, key and value with one product by wq|wk|wv;
        # a one-row query then attends unmasked with the op's own helpers
        params = {n: t.values for n, t in self.params(61).items()}
        x, memory = rand((*lead, 3, 4), 62, grad=False), rand((*lead, 5, 4), 63, grad=False)

        def attend(qh, kh, vh):
            return ad._linear(ad._attend(qh, kh, vh, False)[1], params["wo"], params["bo"])

        tensors = self.params(61)
        cross = ad.multi_head_attention(x, memory, memory, heads=2, **tensors).values
        qh = ad._split_heads(ad._linear(x.values, params["wq"], params["bq"]), 2)
        kh = ad._split_heads(ad._project(memory.values, params["wk"]), 2, keys=True)
        vh = ad._split_heads(ad._linear(memory.values, params["wv"], params["bv"]), 2)
        assert np.array_equal(attend(qh, kh, vh), cross)
        square = ad.multi_head_attention(x, x, x, heads=2, causal=True, **tensors).values
        wqkv = np.concatenate([params["wq"], params["wk"], params["wv"]], axis=1)
        keys, values = [], []
        for t in range(3):
            qkv = ad._project(x.values[..., t:t + 1, :], wqkv)
            keys.append(ad._split_heads(qkv[..., 4:8], 2, keys=True))
            values.append(ad._split_heads(qkv[..., 8:] + params["bv"], 2))
            out = attend(ad._split_heads(qkv[..., :4] + params["bq"], 2),
                         np.concatenate(keys, axis=-1), np.concatenate(values, axis=-2))
            # a one-row product may sum in another order than the matrix one
            np.testing.assert_allclose(out, square[..., t:t + 1, :], rtol=0, atol=1e-14)

    def test_one_call_records_one_entry(self):
        x = rand((2, 3, 4), 59)
        ad.multi_head_attention(x, x, x, heads=2, causal=True, **self.params(60))
        assert [entry.name for entry in ad._TAPE] == ["multi_head_attention"]


class TestSublayerOps:
    """The one-entry sublayer ops against the composites they replaced."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_values_and_gradients_match_the_composite_bit_for_bit(self, case, lead):
        leaves, build = sublayer_case(case, lead)
        results = []
        for op in (sublayer_op(case), SUBLAYER_CASES[case][1]):
            ad.reset_tape()
            out, loss = build(op)
            results.append([out.values, *backward(loss, leaves)])
        fused, composite = results
        assert len(fused) == len(composite)
        for got, expected in zip(fused, composite):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_one_call_records_one_entry(self, case):
        leaves, build = sublayer_case(case)
        ad.reset_tape()
        build(sublayer_op(case))
        assert [entry.name for entry in ad._TAPE].count(SUBLAYER_CASES[case][0]) == 1

    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_gradient_against_finite_differences(self, case):
        leaves, build = sublayer_case(case)
        assert finite_diff_check(lambda: build(sublayer_op(case))[1], leaves) < 1e-6

    @pytest.mark.parametrize("call", [
        lambda: ad.residual_norm(rand((3, 4), 1), rand((3, 5), 2), rand((4,), 3), rand((4,), 4)),
        lambda: ad.residual_norm(rand((3, 4), 1), rand((3, 4), 2), rand((5,), 3), rand((4,), 4)),
        lambda: ad.residual_gate(rand((3, 4), 1), rand((3, 4), 2), rand((3,), 3)),
        lambda: ad.residual_gate(rand((3, 4), 1), rand((3, 4), 2), rand((1,), 3)),
        lambda: ad.residual_gate(rand((3, 4), 1), rand((2, 4), 2), rand((4,), 3)),
        lambda: ad.feed_forward(rand((3, 4), 1), rand((5, 6), 2), rand((6,), 3),
                                rand((6, 4), 4), rand((4,), 5)),
        lambda: ad.feed_forward(rand((3, 4), 1), rand((4, 6), 2), rand((6,), 3),
                                rand((5, 4), 4), rand((4,), 5)),
        lambda: ad.project_pair(np.ones((3, 4)), rand((4, 4), 1), np.ones((2, 2)), rand((2, 4), 2)),
        lambda: ad.project_pair(np.ones((3, 4)), rand((4, 4), 1), np.ones((3, 2)), rand((2, 5), 2)),
    ])
    def test_shape_errors(self, call):
        with pytest.raises(ShapeMismatchError):
            call()


def lstm_step_loop(projected, wh):
    """The LSTM recurrence as a composite of tape primitives, 16 entries a
    step: the loop the fused op replaced, kept as its reference."""
    hidden = wh.shape[0]
    *lead, steps, gates = projected.shape
    flat = ad.reshape(projected, (*lead, steps * gates))
    h = c = Tensor(np.zeros((*lead, hidden)))
    for step in range(steps):
        pre = ad.add(ad.slice_cols(flat, step * gates, (step + 1) * gates), ad.matmul(h, wh))
        i, f, g, o = (ad.slice_cols(pre, k * hidden, (k + 1) * hidden) for k in range(4))
        i, f, g, o = ad.sigmoid(i), ad.sigmoid(f), ad.tanh(g), ad.sigmoid(o)
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
    return h


class TestFusedLstm:
    """The one-entry LSTM op against the step loop it replaced."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("hidden", [1, 4])
    def test_output_and_gradients_match_the_step_loop_bit_for_bit(self, lead, steps, hidden):
        projected = rand((*lead, steps, 4 * hidden), 70, scale=1.5)
        wh = rand((hidden, 4 * hidden), 71, scale=0.8)
        target = Tensor(np.random.default_rng(72).normal(size=(*lead, hidden)))
        results = []
        for run in (ad.lstm, lstm_step_loop):
            ad.reset_tape()
            out = run(projected, wh)
            # the tanh makes the incoming gradient differ from mse_loss's own
            loss = ad.mse_loss(ad.tanh(out), target)
            results.append([out.values, *backward(loss, [projected, wh])])
        fused, composite = results
        for got, expected in zip(fused, composite):
            assert np.array_equal(got, expected)

    def test_gradient_against_finite_differences(self):
        projected, wh = rand((2, 3, 8), 73), rand((2, 8), 74, scale=0.8)
        target = Tensor(np.random.default_rng(75).normal(size=(2, 2)))
        err = finite_diff_check(lambda: ad.mse_loss(ad.lstm(projected, wh), target),
                                [projected, wh])
        assert err < 1e-6

    def test_one_call_records_one_entry(self):
        ad.lstm(rand((2, 5, 8), 76), rand((2, 8), 77))
        assert [entry.name for entry in ad._TAPE] == ["lstm"]

    @pytest.mark.parametrize("projected_shape, wh_shape", [
        ((3, 12), (2, 8)),     # last axis is not 4H
        ((3, 8), (2, 6)),      # wh is not (H, 4H)
        ((3, 8), (8,)),        # wh is not a matrix
        ((8,), (2, 8)),        # no time axis
    ])
    def test_shape_errors(self, projected_shape, wh_shape):
        with pytest.raises(ShapeMismatchError):
            ad.lstm(rand(projected_shape, 78), rand(wh_shape, 79))


class TestStructuralOps:
    """Gradient checks for the slicing / stacking / gating primitives."""

    def test_composite_gradient(self):
        a = rand((4, 6), 28)
        v = rand((3,), 29)
        g = rand((3,), 30)
        alpha = Tensor(np.asarray(0.7), requires_grad=True)
        bias = rand((6,), 31)

        def f():
            left = ad.slice_cols(a, 0, 3)
            right = ad.slice_cols(a, 3, 6)
            merged = ad.concat_cols([ad.mul_rowvec(left, v), ad.scale_by(right, alpha)])
            merged = ad.add_rowvec(merged, bias)
            rebuilt = ad.concat_rows([ad.transpose(ad.transpose(merged)), merged])
            vec = ad.reshape(rebuilt, (48,))
            stacked = ad.stack_rows([g, g])
            tiled = ad.tile_rows(ad.reshape(ad.stack_rows([g, g]), (6,)), 2)
            extra = ad.add(sum_all(stacked), sum_all(tiled))
            return ad.add(sum_all(ad.mul(vec, vec)), extra)

        err = finite_diff_check(f, [a, v, g, alpha, bias])
        assert err < 1e-6

    @pytest.mark.parametrize("op, axis", [(ad.concat_rows, -2), (ad.concat_cols, -1)])
    def test_concat_backward_hands_each_part_its_slice(self, op, axis):
        sizes = (1, 3, 2)
        parts = [rand((2, 4, 4)[:axis] + (n,) + (4,) * (-1 - axis), 33 + n) for n in sizes]
        out = op(parts)
        g = np.random.default_rng(36).normal(size=out.shape)
        grads = backward(sum_all(ad.mul(out, Tensor(g))), parts)
        for grad, part, expected in zip(grads, parts, np.split(g, [1, 4], axis=axis)):
            assert grad.shape == part.shape
            np.testing.assert_array_equal(grad, expected)

    def test_tile_rows_backward_sums(self):
        v = Tensor([1.0, 2.0], requires_grad=True)
        (grad,) = backward(sum_all(ad.tile_rows(v, 3)), [v])
        np.testing.assert_array_equal(grad, [3.0, 3.0])

    def test_sigmoid_gradient(self):
        x = rand((5,), 32)
        err = finite_diff_check(lambda: sum_all(ad.mul(ad.sigmoid(x), ad.sigmoid(x))), [x])
        assert err < 1e-6


class TestBackwardSemantics:
    def test_linear_gradient_is_ones(self):
        w = Tensor([2.0, -1.0], requires_grad=True)
        (grad,) = backward(sum_all(w), [w])
        np.testing.assert_array_equal(grad, [1.0, 1.0])

    def test_quadratic_gradient(self):
        w = Tensor([3.0], requires_grad=True)
        (grad,) = backward(sum_all(ad.mul(w, w)), [w])
        np.testing.assert_allclose(grad, [6.0], atol=1e-12)

    def test_gradients_follow_wrt_order(self):
        # d/da sum(a*b) = b and d/db = a, returned in the order asked for
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, -4.0], requires_grad=True)
        loss = sum_all(ad.mul(a, b))
        grad_b, grad_a = backward(loss, [b, a])
        np.testing.assert_array_equal(grad_a, b.values)
        np.testing.assert_array_equal(grad_b, a.values)
        assert backward(loss, []) == []

    def test_unreached_leaf_gets_zeros(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        unused = rand((2, 3), 35)
        grad_w, grad_unused = backward(sum_all(ad.mul(w, w)), [w, unused])
        np.testing.assert_array_equal(grad_w, [2.0, 4.0])
        assert grad_unused.shape == (2, 3) and not grad_unused.any()

    def test_intermediate_and_constant_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        hidden = ad.tanh(w)
        loss = sum_all(ad.mul(hidden, hidden))
        for bad in (hidden, loss, Tensor([1.0, 2.0])):
            with pytest.raises(ContractError):
                backward(loss, [w, bad])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(ad.mul(w, w), [w])

    def test_item_needs_a_scalar(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ContractError, match=r"item\(\) needs a scalar, got shape \(2,\)"):
            Tensor([1.0, 2.0]).item()

    def test_constant_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(sum_all(Tensor([1.0, 2.0])), [])

    def test_no_grad_suppresses_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            ad.mul(w, w)
        assert ad.tape_size() == 0

    def test_tape_records_in_execution_order(self):
        # entries name their op and are topologically ordered by construction
        w = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.tanh(w)
        z = ad.mul(y, y)
        loss = sum_all(z)
        entries = tuple(ad._TAPE)
        assert [entry.name for entry in entries] == ["tanh", "mul", "sum_all"]
        assert [entry.output for entry in entries] == [y, z, loss]
        for i, entry in enumerate(entries):
            for tensor in entry.inputs:
                assert all(tensor is not later.output for later in entries[i:])

    def test_constant_subgraphs_not_recorded(self):
        ad.mul(Tensor([1.0]), Tensor([2.0]))
        assert ad.tape_size() == 0

    def test_shared_intermediate_accumulates(self):
        # y = w*w feeds two consumers; dL/dw = 2*(dL/dy)*w with dL/dy = 2
        w = Tensor([2.0], requires_grad=True)
        y = ad.mul(w, w)
        (grad,) = backward(sum_all(ad.add(y, y)), [w])
        np.testing.assert_allclose(grad, [8.0], atol=1e-12)

    def test_finite_outputs_after_forward_backward(self):
        # random composite on finite inputs never yields NaN/Inf anywhere
        rng = np.random.default_rng(34)
        for trial in range(10):
            ad.reset_tape()
            a = Tensor(rng.normal(scale=3.0, size=(4, 4)), requires_grad=True)
            b = Tensor(rng.normal(scale=3.0, size=(4, 4)), requires_grad=True)
            out = ad.softmax_rows(ad.matmul(ad.tanh(a), b))
            loss = ad.mse_loss(out, Tensor(rng.random((4, 4))))
            for t in (a, b, out, loss):
                assert np.isfinite(t.values).all()
            for grad in backward(loss, [a, b]):
                assert np.isfinite(grad).all()


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        values = np.array([1.0, -2.0])
        state = OptimizerState(learning_rate=0.1)
        adam_step(values, np.zeros(2), state)
        np.testing.assert_array_equal(values, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_minus_lr(self):
        # bias-corrected m/sqrt(v) is 1 on the first step with unit gradient
        values = np.zeros(1)
        adam_step(values, np.ones(1), OptimizerState(learning_rate=0.1))
        np.testing.assert_allclose(values, [-0.1], atol=1e-8)

    def test_two_steps_match_hand_rolled_oracle(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = [np.array([1.0, -2.0]), np.array([0.5, 0.5])]
        w = np.array([0.3, -0.7])
        m = np.zeros(2)
        v = np.zeros(2)
        expected = w.copy()
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            expected -= lr * mhat / (np.sqrt(vhat) + eps)

        values = np.array([0.3, -0.7])
        state = OptimizerState(learning_rate=lr)
        for g in grads:
            adam_step(values, g.copy(), state)
        np.testing.assert_allclose(values, expected, atol=1e-15)
        assert state.step == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            adam_step(np.array([1.0, 2.0]), np.zeros(3), OptimizerState())
        with pytest.raises(ShapeMismatchError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 2)), OptimizerState())
        state = OptimizerState()
        adam_step(np.zeros(2), np.zeros(2), state)
        with pytest.raises(ShapeMismatchError):
            adam_step(np.zeros(3), np.zeros(3), state)

    def test_steps_after_the_first_allocate_less_than_one_vector(self):
        # numpy reports its buffers to tracemalloc; a parameter-sized
        # temporary in the update would show as a peak of at least
        # values.nbytes
        c7 = ModelConfig("TransPPRZ", vocab_size=20, t_in=5, t_out=5, d_model=32, d_ff=64)
        values = build_model(c7).params.flat.copy()
        rng = np.random.default_rng(5)
        state = OptimizerState()
        adam_step(values, rng.normal(size=values.size), state)
        grad = rng.normal(size=values.size)
        tracemalloc.start()
        try:
            adam_step(values, grad, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.size > 40_000
        assert peak < values.nbytes


HOT_PATH_PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def hot_operands(draw):
    """(seed, shape, scale): 1 to 3 leading axes, a last axis of 2 to 64 and
    a scale from 1e-3 to 1e3 for the values drawn under the seed."""
    lead = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3), label="lead")
    width = draw(st.integers(2, 64), label="width")
    scale = 10.0 ** draw(st.floats(-3.0, 3.0), label="log10 scale")
    return draw(st.integers(0, 2**32 - 1), label="seed"), (*lead, width), scale


class TestHotPathHelpers:
    """The helpers that reduce with np.add.reduce give the bytes of the
    np.mean, np.var, ndarray.sum and np.stack formulas they replaced, beyond
    the sizes and binary days the golden file pins."""

    @HOT_PATH_PROPERTY
    @given(hot_operands())
    def test_layer_norm_and_its_vjp_match_mean_and_var(self, operands):
        seed, shape, scale = operands
        rng = np.random.default_rng(seed)
        # a shared offset makes the centering cancel digits
        x = scale * (rng.normal(size=shape) + rng.normal(scale=10.0))
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = scale * rng.normal(size=shape)
        out, vjp = ad._layer_norm("layer_norm", x, gamma, beta)
        reference, reference_vjp = layer_norm_reference(x, gamma, beta)
        assert np.array_equal(out, reference)
        for got, want in zip(vjp(g), reference_vjp(g), strict=True):
            assert np.array_equal(got, want)

    @HOT_PATH_PROPERTY
    @given(hot_operands(), st.booleans())
    def test_softmax_and_its_vjp_match_sum(self, operands, causal):
        seed, shape, scale = operands
        if causal:  # the causal mask takes square scores only
            shape = (*shape[:-2], shape[-1], shape[-1])
        rng = np.random.default_rng(seed)
        scores = scale * rng.normal(size=shape)
        y = ad._softmax(scores, causal)
        assert np.array_equal(y, softmax_reference(scores, causal))
        g = scale * rng.normal(size=shape)
        assert np.array_equal(ad._softmax_vjp(y, g), softmax_vjp_reference(y, g))

    @HOT_PATH_PROPERTY
    @given(hot_operands())
    def test_mse_loss_matches_mean(self, operands):
        seed, shape, scale = operands
        rng = np.random.default_rng(seed)
        pred, target = scale * rng.normal(size=shape), scale * rng.normal(size=shape)
        loss = ad.mse_loss(Tensor(pred), Tensor(target)).values
        assert np.array_equal(loss, mse_reference(pred, target))

    @HOT_PATH_PROPERTY
    @given(hot_operands())
    def test_cte_inputs_match_two_sums_and_a_stack(self, operands):
        # real-valued days, so the one reduction is exact beyond integer counts
        seed, (*lead, width), scale = operands
        rng = np.random.default_rng(seed)
        v = width // 2
        days = scale * rng.normal(size=(*lead, 2 * v))
        for got, want in zip(_cte_inputs(days, v), cte_inputs_reference(days, v), strict=True):
            assert np.array_equal(got, want)
