"""Engine tests: forward values against hand oracles, gradients against
central finite differences, and the semantics of backward()."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import otcforecast.autodiff as ad
from otcforecast.autodiff import OptimizerState, Tensor, adam_step, backward
from otcforecast.errors import ConfigurationError, ContractError, ShapeMismatchError
from otcforecast.models import MODEL_KINDS, ModelConfig, _cte_inputs, build_model

from helpers import (ATTENTION, C7, FD_CASES, SUBLAYER_CASES, assert_same_bits, attention_params,
                     cte_inputs_reference, finite_diff_check, layer_norm_reference,
                     mse_reference, positioned_case, positioned_composite, rand,
                     random_day_matrix, sigmoid_reference, softmax_reference,
                     softmax_vjp_reference, sublayer_case, sublayer_op, sum_all, toy_config)


class TestTensor:
    @pytest.mark.parametrize("values", [
        np.arange(6.0).reshape(2, 3),
        np.float64(2.5),
        np.array(3.0),
        np.arange(6, dtype=np.uint8).reshape(3, 2),
        np.arange(6.0)[::-1],
        [[1, 2], [3, 4]],
    ], ids=["float64", "numpy-scalar", "0-d", "uint8", "reversed-view", "list"])
    def test_values_are_contiguous_float64_of_the_input_shape(self, values):
        t = Tensor(values)
        assert t.values.dtype == np.float64 and t.values.flags.c_contiguous
        assert t.shape == np.shape(values)
        np.testing.assert_array_equal(t.values, values)


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


@pytest.mark.parametrize("case", FD_CASES)
def test_gradient_against_finite_differences(case):
    leaves, loss = FD_CASES[case]()
    assert finite_diff_check(loss, leaves) < 1e-6


def layer_norm_of(x, beta=0.0):
    return ad.layer_norm(Tensor(x), Tensor(np.ones(len(x))), Tensor(np.full(len(x), beta)))


# a forward value and the hand oracle it must match, to an absolute tolerance
FORWARD_CASES = {
    "matmul": (lambda: ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])), [[11.0]], 0),
    "mul-annihilator": (lambda: ad.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0])),
                        [0.0, 0.0, 0.0], 0),
    "mul": (lambda: ad.mul(Tensor([1.0, 2.0]), Tensor([2.0, 0.5])), [2.0, 1.0], 0),
    "tanh-at-origin": (lambda: ad.tanh(Tensor([0.0])), [0.0], 0),
    "scale": (lambda: ad.scale(Tensor([2.0, -4.0]), 0.5), [1.0, -2.0], 0),
    "mse-perfect-fit": (lambda: ad.mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])), 0.0, 0),
    "mse-half": (lambda: ad.mse_loss(Tensor([1.0, 0.0]), Tensor([0.0, 0.0])), 0.5, 0),
    "embedding_bag-pair": (lambda: ad.embedding_bag(rand((4, 3), 7), (0, 2)),
                           rand((4, 3), 7).values[[0, 2]].sum(axis=0), 0),
    "embedding_bag-singleton": (lambda: ad.embedding_bag(rand((5, 4), 6), (3,)),
                                rand((5, 4), 6).values[3], 0),
    "layer_norm-constant": (lambda: layer_norm_of([5.0, 5.0, 5.0, 5.0]), 0.0, 1e-9),
    # mean 2, population std 1, so [1, 3] normalizes to [-1, 1]
    "layer_norm-two-points": (lambda: layer_norm_of([1.0, 3.0]), [-1.0, 1.0], 1e-5),
    "layer_norm-beta-only": (lambda: layer_norm_of([0.0, 0.0], beta=7.0), [7.0, 7.0], 1e-12),
}


@pytest.mark.parametrize("case", FORWARD_CASES)
def test_forward_value(case):
    op, expected, atol = FORWARD_CASES[case]
    np.testing.assert_allclose(op().values, expected, rtol=0, atol=atol)


def scatter_expected():
    expected = np.zeros((4, 3))
    expected[[1, 3]] = 1.0
    return expected


# a loss of one leaf and that leaf's gradient, worked out by hand
BACKWARD_CASES = {
    "sum": (lambda w: sum_all(w), [2.0, -1.0], [1.0, 1.0]),
    "square": (lambda w: sum_all(ad.mul(w, w)), [3.0], [6.0]),
    # y = w*w feeds two consumers; dL/dw = 2*(dL/dy)*w with dL/dy = 2
    "shared-intermediate": (lambda w: sum_all(ad.add(y := ad.mul(w, w), y)), [2.0], [8.0]),
    # d/dpred mean((pred - target)^2) = 2 (pred - target) / N
    "mse": (lambda w: ad.mse_loss(w, Tensor([0.0, 0.0])), [1.0, 0.0], [1.0, 0.0]),
    "tile_rows-sums": (lambda w: sum_all(ad.tile_rows(w, 3)), [1.0, 2.0], [3.0, 3.0]),
    "embedding_bag-scatters": (lambda w: sum_all(ad.embedding_bag(w, (1, 3))),
                               rand((4, 3), 10).values, scatter_expected()),
}


@pytest.mark.parametrize("case", BACKWARD_CASES)
def test_gradient_by_hand(case):
    loss, values, expected = BACKWARD_CASES[case]
    w = Tensor(values, requires_grad=True)
    np.testing.assert_array_equal(backward(loss(w), [w])[0], expected)


# calls that must raise ShapeMismatchError
SHAPE_ERRORS = {
    "add": lambda: ad.add(Tensor([1.0]), Tensor([1.0, 2.0])),
    "mse_loss": lambda: ad.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0])),
    **{f"linear-{i}": lambda x=x, w=w, b=b: ad.linear(rand(x, 0), rand(w, 1), rand(b, 2))
       for i, (x, w, b) in enumerate([((2, 4), (4, 5), (4,)), ((2, 4), (3, 5), (5,)),
                                      ((2, 4), (4,), (4,)), ((2, 4), (4, 5), (1, 5))])},
    "residual_norm-fx": lambda: ad.residual_norm(rand((3, 4), 1), rand((3, 5), 2), rand((4,), 3),
                                                 rand((4,), 4)),
    "residual_norm-gamma": lambda: ad.residual_norm(rand((3, 4), 1), rand((3, 4), 2),
                                                    rand((5,), 3), rand((4,), 4)),
    "residual_gate-rows": lambda: ad.residual_gate(rand((3, 4), 1), rand((3, 4), 2),
                                                   rand((3,), 3)),
    "residual_gate-one": lambda: ad.residual_gate(rand((3, 4), 1), rand((3, 4), 2), rand((1,), 3)),
    "residual_gate-fx": lambda: ad.residual_gate(rand((3, 4), 1), rand((2, 4), 2), rand((4,), 3)),
    "feed_forward-w1": lambda: ad.feed_forward(rand((3, 4), 1), rand((5, 6), 2), rand((6,), 3),
                                               rand((6, 4), 4), rand((4,), 5)),
    "feed_forward-w2": lambda: ad.feed_forward(rand((3, 4), 1), rand((4, 6), 2), rand((6,), 3),
                                               rand((5, 4), 4), rand((4,), 5)),
    "project_pair-rows": lambda: ad.project_pair(np.ones((3, 4)), rand((4, 4), 1),
                                                 np.ones((2, 2)), rand((2, 4), 2)),
    "project_pair-width": lambda: ad.project_pair(np.ones((3, 4)), rand((4, 4), 1),
                                                  np.ones((3, 2)), rand((2, 5), 2)),
    # positions that do not fit the rows: a position too many, none for the start
    # row, one row that numpy would broadcast, another width, a stack, no row axis
    **{f"positioned-{i}": lambda x=x, pe=pe, start=start: ad.positioned(
        rand(x, 66), np.zeros(pe), rand((4,), 67) if start else None)
       for i, (x, pe, start) in enumerate([((2, 3, 4), (4, 4), False), ((2, 3, 4), (3, 4), True),
                                           ((2, 3, 4), (1, 4), False), ((2, 3, 4), (3, 5), False),
                                           ((2, 3, 4), (2, 3, 4), False), ((4,), (1, 4), False)])},
    # projected's last axis is not 4H, wh is not (H, 4H), wh is not a matrix, no time axis
    **{f"lstm-{i}": lambda p=p, wh=wh: ad.lstm(rand(p, 78), rand(wh, 79))
       for i, (p, wh) in enumerate([((3, 12), (2, 8)), ((3, 8), (2, 6)), ((3, 8), (8,)),
                                    ((8,), (2, 8))])},
}
# calls whose ShapeMismatchError must name what does not fit
SHAPE_ERRORS_NAMING = {
    "matmul": (lambda: ad.matmul(rand((2, 3), 0), rand((2, 2), 1)), r"\(2, 3\).*\(2, 2\)"),
    # leading axes must agree
    "matmul-stacked": (lambda: ad.matmul(rand((2, 3, 4), 7), rand((3, 4, 5), 8)), r"\(2, 3, 4\)"),
    **{f"causal-softmax-{rows}x{cols}": (lambda rows=rows, cols=cols: ad.softmax_rows(
        rand((2, rows, cols), 28, grad=False), causal=True), "square")
       for rows, cols in ((1, 5), (4, 5), (6, 5))},
    # causal attention of fewer keys, or fewer queries, than queries or keys
    **{f"causal-attention-{i}": (lambda q=q, k=k: ad.multi_head_attention(
        rand(q, 32), rand(k, 33), rand(k, 33), heads=2, causal=True, **attention_with(4, 31)),
        "square") for i, (q, k) in enumerate([((3, 5, 4), (3, 4, 4)), ((3, 1, 4), (3, 5, 4))])},
    # no position axis, keys and values of different lengths, more axes on the
    # keys, other leading axes, other widths
    **{f"attention-{i}": (lambda q=q, k=k, v=v: ad.multi_head_attention(
        rand(q, 26), rand(k, 27), rand(v, 28), heads=2, **attention_with(4, 25)), "do not fit")
       for i, (q, k, v) in enumerate([((4,), (4,), (4,)), ((3, 4), (5, 4), (4, 4)),
                                      ((3, 4), (2, 5, 4), (2, 5, 4)),
                                      ((2, 3, 4), (3, 5, 4), (3, 5, 4)),
                                      ((3, 4), (5, 6), (5, 6))])},
}


@pytest.mark.parametrize("case", [*SHAPE_ERRORS, *SHAPE_ERRORS_NAMING])
def test_shape_error(case):
    call, match = SHAPE_ERRORS_NAMING.get(case, (SHAPE_ERRORS.get(case), None))
    with pytest.raises(ShapeMismatchError, match=match):
        call()


class TestMatmul:
    def test_identity_exact_for_random_integer_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 8, size=2))
            a = Tensor(rng.integers(-99, 100, size=(m, n)).astype(float))
            assert np.array_equal(ad.matmul(a, Tensor(np.eye(n))).values, a.values)

    def test_rows_of_a_batch_match_the_unbatched_product(self):
        a, b = rand((3, 2, 4), 5, grad=False), rand((4, 3), 6, grad=False)
        out = ad.matmul(a, b).values
        for i in range(3):
            np.testing.assert_allclose(out[i], a.values[i] @ b.values, rtol=0, atol=1e-12)


class TestLinear:
    """The one-entry affine op against the ``add_rowvec(matmul(x, w), b)`` it fuses."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("x_grad", [True, False], ids=["x", "constant_x"])
    def test_outputs_and_gradients_match_the_composite_bit_for_bit(self, lead, x_grad):
        x, w, b = rand((*lead, 5), 70, grad=x_grad), rand((5, 3), 71), rand((3,), 72)
        target = Tensor(np.random.default_rng(73).normal(size=(*lead, 3)))

        def build(affine):
            out = ad.tanh(affine(x, w, b))
            return out, ad.mse_loss(out, target)

        assert_same_bits([x, w, b] if x_grad else [w, b], build, ad.linear,
                         lambda x, w, b: ad.add_rowvec(ad.matmul(x, w), b))


class TestEmbeddingBag:
    def test_empty_set_is_zero_vector(self):
        table = rand((4, 3), 5)
        out = ad.embedding_bag(table, ())
        assert out.values.tolist() == [0.0, 0.0, 0.0]
        assert not out.requires_grad

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


# a one-entry op whose input ``constant`` may need no gradient: its call with
# that input requiring one or not
CONSTANT_INPUTS = {
    "matmul": (lambda grad: ad.matmul(rand((2, 3, 4), 6, grad=grad), rand((4, 5), 4)), 0),
    "linear": (lambda grad: ad.linear(rand((2, 3, 4), 74, grad=grad), rand((4, 5), 75),
                                      rand((5,), 76)), 0),
    "mse_loss": (lambda grad: ad.mse_loss(rand((3, 4), 7), rand((3, 4), 8, grad=grad)), 1),
}


@pytest.mark.parametrize("case", CONSTANT_INPUTS)
def test_no_gradient_for_a_constant_input(case):
    call, constant = CONSTANT_INPUTS[case]
    grads = []
    for requires_grad in (False, True):
        ad.reset_tape()
        out = call(requires_grad)
        (entry,) = ad._TAPE
        assert entry.name == case
        grads.append(entry.vjp(np.random.default_rng(5).normal(size=out.shape)))
    skipped, reference = grads
    assert skipped[constant] is None
    assert reference[constant].shape == entry.inputs[constant].shape
    for i, (got, expected) in enumerate(zip(skipped, reference)):
        assert i == constant or np.array_equal(got, expected)


def attention_with(d, seed=None):
    """One attention block's weights: seeded normal (d, d) matrices and zero
    biases, or identity matrices where ``seed`` is None."""
    rng = np.random.default_rng(seed)
    w = (lambda: np.eye(d)) if seed is None else (lambda: rng.normal(scale=0.5, size=(d, d)))
    return {n: Tensor(w() if n[0] == "w" else np.zeros(d), requires_grad=True) for n in ATTENTION}


class TestSoftmaxAndAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            s = Tensor(rng.normal(scale=5.0, size=(6, 6)))
            y = ad.softmax_rows(s).values
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            y = ad.softmax_rows(s, causal=True).values
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 4)])
    def test_causal_mask_zeroes_future(self, shape):
        y = ad.softmax_rows(rand(shape, 16, grad=False), causal=True).values
        assert np.array_equal(np.triu(y, k=1), np.zeros_like(y))

    def test_single_position_returns_value_projection(self):
        params = attention_with(4, 17)
        q = rand((1, 4), 18, grad=False)
        v = rand((1, 4), 19, grad=False)
        out = ad.multi_head_attention(q, q, v, heads=2, **params)
        expected = (v.values @ params["wv"].values + params["bv"].values) \
            @ params["wo"].values + params["bo"].values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_identical_keys_average_values(self):
        q = Tensor(np.tile([[0.3, -0.2, 0.5, 0.1]], (2, 1)))
        v = Tensor([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        out = ad.multi_head_attention(q, q, v, heads=2, **attention_with(4))
        expected = np.tile(v.values.mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_causal_position_zero_equals_single_position(self):
        params = attention_with(4, 21)
        x = rand((3, 4), 22, grad=False)
        full = ad.multi_head_attention(x, x, x, heads=2, causal=True, **params)
        first = Tensor(x.values[:1])
        solo = ad.multi_head_attention(first, first, first, heads=2, **params)
        np.testing.assert_allclose(full.values[0], solo.values[0], atol=1e-12)

    def test_rows_of_a_batch_match_the_unbatched_op(self):
        params = attention_params(25)
        x = rand((3, 4, 4), 26, grad=False)
        batched = ad.multi_head_attention(x, x, x, heads=2, causal=True, **params).values
        for i in range(3):
            xi = Tensor(x.values[i])
            single = ad.multi_head_attention(xi, xi, xi, heads=2, causal=True, **params).values
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        x = rand((2, 4), 24)
        with pytest.raises(ConfigurationError):
            ad.multi_head_attention(x, x, x, heads=3, **attention_with(4, 23))


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
        x = rand((2, 3, 4), 41)
        return attention_params(40), x, x if causal else rand((2, 5, 4), 42)

    @pytest.mark.parametrize("causal", [True, False])
    def test_random_key_bias_changes_nothing(self, causal):
        params, x, keys = self.inputs(causal)
        bk = rand((4,), 43)
        target = Tensor(np.random.default_rng(44).normal(size=(2, 3, 4)))
        leaves = [x, *([] if keys is x else [keys]), *params.values()]  # each leaf once
        outputs = []
        for attend in (ad.multi_head_attention, functools.partial(attention_with_key_bias, bk=bk)):
            ad.reset_tape()
            out = attend(x, keys, keys, heads=2, causal=causal, **params)
            grads = backward(ad.mse_loss(out, target), leaves)
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

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("cross", [False, True], ids=["causal_self", "cross"])
    def test_outputs_and_gradients_match_the_composite_bit_for_bit(self, lead, cross):
        params = attention_params(50)
        x = rand((*lead, 3, 4), 51)
        # self-attention reads one tensor three times; cross-attention reads
        # the memory as keys and values, over a different length
        memory = rand((*lead, 5, 4), 52) if cross else x
        target = Tensor(np.random.default_rng(53).normal(size=(*lead, 3, 4)))

        def build(attend):
            # the residual add makes x's gradient a sum over four contributions
            out = ad.add(x, attend(x, memory, memory, heads=2, causal=not cross, **params))
            return out, ad.mse_loss(out, target)

        leaves = [x, memory, *params.values()] if cross else [x, *params.values()]
        assert_same_bits(leaves, build, ad.multi_head_attention, attention_with_key_bias)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_helpers_on_keys_and_values_projected_once_match_the_op(self, lead):
        # inference projects the memory's keys and values once, and each
        # decoded row's query, key and value with the op's own rules;
        # a one-row query then attends unmasked
        tensors = attention_params(61)
        params = {n: t.values for n, t in tensors.items()}
        x, memory = rand((*lead, 3, 4), 62, grad=False), rand((*lead, 5, 4), 63, grad=False)

        def attend(rows, kh, vh):
            return ad._attend_out(ad._query_heads(rows, params, 2), kh, vh, params, False)[2]

        cross = ad.multi_head_attention(x, memory, memory, heads=2, **tensors).values
        kh, vh = ad._key_value_heads(memory.values, memory.values, params, 2)
        assert np.array_equal(attend(x.values, kh, vh), cross)
        square = ad.multi_head_attention(x, x, x, heads=2, causal=True, **tensors).values
        keys, values = [], []
        for t in range(3):
            row = x.values[..., t:t + 1, :]
            kh, vh = ad._key_value_heads(row, row, params, 2)
            keys.append(kh)
            values.append(vh)
            out = attend(row, np.concatenate(keys, axis=-1), np.concatenate(values, axis=-2))
            # a one-row product may sum in another order than the matrix one
            np.testing.assert_allclose(out, square[..., t:t + 1, :], rtol=0, atol=1e-14)


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


# (rows, start): encoder rows, decoder rows after the start row, and the
# start row alone, as the decoder of a one-day forecast gets it
POSITIONED_CASES = {"rows": (4, False), "start_and_rows": (4, True), "start_only": (0, True)}


def positioned_call(rows, start):
    x, pe, sos, _ = positioned_case((2,), rows, start)
    return ad.positioned(x, pe, sos)


# a call of each one-entry op whose whole tape is that one entry
ONE_ENTRY = {
    "multi_head_attention": lambda: ad.multi_head_attention(
        x := rand((2, 3, 4), 59), x, x, heads=2, causal=True, **attention_params(60)),
    "lstm": lambda: ad.lstm(rand((2, 5, 8), 76), rand((2, 8), 77)),
    **{f"positioned-{name}": lambda case=case: positioned_call(*case)
       for name, case in POSITIONED_CASES.items()},
}


@pytest.mark.parametrize("case", ONE_ENTRY)
def test_one_call_records_one_entry(case):
    ONE_ENTRY[case]()
    assert [entry.name for entry in ad._TAPE] == [case.split("-")[0]]


class TestSublayerOps:
    """The one-entry sublayer ops against the composites they replaced."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_values_and_gradients_match_the_composite_bit_for_bit(self, case, lead):
        leaves, build = sublayer_case(case, lead)
        assert_same_bits(leaves, build, sublayer_op(case), SUBLAYER_CASES[case][1])

    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_one_call_records_one_entry(self, case):
        leaves, build = sublayer_case(case)
        ad.reset_tape()
        build(sublayer_op(case))
        assert [entry.name for entry in ad._TAPE].count(SUBLAYER_CASES[case][0]) == 1


class TestPositioned:
    """The one-entry input-sequence op against the ``tile_rows``, ``reshape``,
    ``concat_rows`` and ``add`` composite it replaced."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("case", POSITIONED_CASES)
    def test_output_and_gradients_match_the_composite_bit_for_bit(self, lead, case):
        x, pe, sos, target = positioned_case(lead, *POSITIONED_CASES[case])
        w, b = rand((4, 4), 64), rand((4,), 65)

        def build(op):
            # x arrives through an op, as the embedded days do
            out = ad.tanh(op(ad.linear(x, w, b), pe, sos))
            return out, ad.mse_loss(out, target)

        assert_same_bits([x, w, b] + ([sos] if sos is not None else []), build, ad.positioned,
                         positioned_composite)


class TestFusedLstm:
    """The one-entry LSTM op against the step loop it replaced."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("hidden", [1, 4])
    def test_output_and_gradients_match_the_step_loop_bit_for_bit(self, lead, steps, hidden):
        projected = rand((*lead, steps, 4 * hidden), 70, scale=1.5)
        wh = rand((hidden, 4 * hidden), 71, scale=0.8)
        target = Tensor(np.random.default_rng(72).normal(size=(*lead, hidden)))

        def build(run):
            out = run(projected, wh)
            # the tanh makes the incoming gradient differ from mse_loss's own
            return out, ad.mse_loss(ad.tanh(out), target)

        assert_same_bits([projected, wh], build, ad.lstm, lstm_step_loop)


@pytest.mark.parametrize("op, axis", [(ad.concat_rows, -2), (ad.concat_cols, -1)])
def test_concat_backward_hands_each_part_its_slice(op, axis):
    sizes = (1, 3, 2)
    parts = [rand((2, 4, 4)[:axis] + (n,) + (4,) * (-1 - axis), 33 + n) for n in sizes]
    out = op(parts)
    g = np.random.default_rng(36).normal(size=out.shape)
    grads = backward(sum_all(ad.mul(out, Tensor(g))), parts)
    for grad, part, expected in zip(grads, parts, np.split(g, [1, 4], axis=axis)):
        assert grad.shape == part.shape
        np.testing.assert_array_equal(grad, expected)


class TestBackwardSemantics:
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

    def test_intermediate_constant_and_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        hidden = ad.tanh(w)
        loss = sum_all(ad.mul(hidden, hidden))
        for start, wrt in ((loss, [w, hidden]), (loss, [w, loss]),
                           (loss, [w, Tensor([1.0, 2.0])]), (hidden, [w])):
            with pytest.raises(ContractError):
                backward(start, wrt)

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
        ad.mul(Tensor([1.0]), Tensor([2.0]))  # nor is a constant subgraph recorded
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


def backward_reference(loss, wrt):
    """Each leaf's gradient from a walk that keeps one array per tensor and sums
    its contributions as ``current + contribution``, in reverse tape order."""
    flowing = {id(loss): np.ones_like(loss.values)}
    for entry in reversed(ad._TAPE):
        out_grad = flowing.pop(id(entry.output), None)
        if out_grad is None:
            continue
        for tensor, contribution in zip(entry.inputs, entry.vjp(out_grad)):
            if contribution is not None and tensor.requires_grad:
                current = flowing.get(id(tensor))
                flowing[id(tensor)] = contribution if current is None else current + contribution
    return [flowing.get(id(t), np.zeros_like(t.values)) for t in wrt]


class TestBackwardOut:
    """backward(..., out=...) writes each leaf's gradient into that leaf's array
    of out, such as ``params.views`` of one vector, and returns those arrays."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_out_holds_the_bytes_of_the_per_leaf_gradients(self, kind):
        model = build_model(toy_config(kind, vocab_size=4, d_model=8))
        inputs = np.stack([random_day_matrix(3, 4, seed) for seed in (1, 2)])
        target = np.stack([random_day_matrix(2, 4, seed) for seed in (3, 4)]).astype(np.float64)
        loss = ad.mse_loss(model.forward(inputs, teacher=target), Tensor(target))
        params = model.params.tensors()
        vector = np.full(model.params.flat.size, np.nan)
        out = model.params.views(vector)
        assert backward(loss, params, out=out) is out
        reference = backward_reference(loss, params)
        assert vector.tobytes() == np.concatenate([g.reshape(-1) for g in reference]).tobytes()
        fresh = backward(loss, params)
        assert [g.shape for g in fresh] == [p.shape for p in params]
        assert [g.tobytes() for g in fresh] == [g.tobytes() for g in reference]

    def test_an_unreached_leaf_reads_zeros_over_nan(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        out = [np.full(2, np.nan), np.full((2, 3), np.nan)]
        backward(sum_all(ad.mul(w, w)), [w, rand((2, 3), 35)], out=out)
        np.testing.assert_array_equal(out[0], [2.0, 4.0])
        np.testing.assert_array_equal(out[1], np.zeros((2, 3)))

    @staticmethod
    def probe():
        """Two leaves and a loss whose one vjp records each call."""
        w = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, -4.0], requires_grad=True)
        calls = []

        def vjp(g):
            calls.append(g)
            return g * b.values, g * w.values

        return w, b, ad._record("dot", (w, b), np.asarray(w.values @ b.values), vjp), calls

    @pytest.mark.parametrize("out", [
        [np.zeros(2)], [np.zeros(2)] * 3, [np.zeros(2), np.zeros(2, dtype=np.float32)],
        [np.zeros(2), np.zeros((1, 2))],
    ], ids=["short", "long", "float32", "2-D"])
    def test_a_bad_out_is_refused_before_any_vjp_runs(self, out):
        w, b, loss, calls = self.probe()
        with pytest.raises(ContractError, match="needs 2 float64 out arrays of the leaves' shapes"):
            backward(loss, [w, b], out=out)
        assert calls == []
        good = [np.full(4, np.nan)[::2], np.empty(2)]  # any layout of the right shape will do
        backward(loss, [w, b], out=good)
        assert len(calls) == 1
        np.testing.assert_array_equal(np.concatenate(good), [3.0, -4.0, 1.0, 2.0])

    def test_a_leaf_listed_twice_is_refused_before_any_vjp_runs(self):
        w, b, loss, calls = self.probe()
        for out in (None, [np.zeros(2)] * 3):
            with pytest.raises(ContractError, match="needs each leaf once, got one listed twice"):
                backward(loss, [w, b, w], out=out)
        assert calls == []


def adam_step_reference(values, grad, state):
    """The unblocked update: the 14 in-place passes over whole vectors, with one
    parameter-length scratch buffer, that :func:`adam_step` runs block by block."""
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
        state.scratch = np.empty_like(values)
    state.step += 1
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    m, v, t = state.m, state.v, state.scratch
    # the order of operations rounds exactly as
    # values -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.multiply(grad, grad, out=t)
    t *= 1.0 - b2
    v *= b2
    v += t
    grad *= 1.0 - b1
    m *= b1
    m += grad
    np.divide(m, bias1, out=t)
    t *= state.learning_rate
    np.divide(v, bias2, out=grad)
    np.sqrt(grad, out=grad)
    grad += ad.ADAM_EPSILON
    t /= grad
    values -= t


def awkward_gradient(rng, size):
    """Normal draws over 40 decades with, at about one entry in four, exact
    zeros, -0.0, subnormals, values near 1e300 (whose squares overflow) and
    1e154 (whose square is near the largest float64)."""
    grad = rng.normal(size=size) * 10.0 ** rng.uniform(-20, 20, size=size)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e300, -3e300, 1e154])
    hit = rng.random(size) < 0.25
    grad[hit] = rng.choice(special, size=int(hit.sum()))
    return grad


class TestAdam:
    # a zero gradient keeps the values; a unit one moves them by -lr, since the
    # bias-corrected m / sqrt(v) is 1 on the first step
    @pytest.mark.parametrize("grad, expected", [(0.0, 1.0), (1.0, 0.9)],
                             ids=["zero_gradient", "first_step_is_minus_lr"])
    def test_first_step(self, grad, expected):
        values, state = np.ones(1), OptimizerState(learning_rate=0.1)
        adam_step(values, np.full(1, grad), state)
        np.testing.assert_allclose(values, [expected], rtol=0, atol=1e-8)
        assert state.step == 1

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

    @pytest.mark.parametrize("size", [1, ad.ADAM_BLOCK - 1, ad.ADAM_BLOCK, ad.ADAM_BLOCK + 1,
                                      3 * ad.ADAM_BLOCK + 7])
    def test_blocks_change_no_bit(self, size):
        rng = np.random.default_rng(size)
        values = rng.normal(size=size)
        expected = values.copy()
        state, reference = OptimizerState(learning_rate=0.03), OptimizerState(learning_rate=0.03)
        for _ in range(3):
            grad = awkward_gradient(rng, size)
            spent = grad.copy()
            with np.errstate(over="ignore"):
                adam_step(values, grad, state)
                adam_step_reference(expected, spent, reference)
            for got, want in ((values, expected), (state.m, reference.m),
                              (state.v, reference.v), (grad, spent)):
                assert got.tobytes() == want.tobytes()
        assert state.step == 3
        assert state.scratch.shape == (min(size, ad.ADAM_BLOCK),)
        if size > 1:  # the squares of the values near 1e300 overflow
            assert np.isinf(state.v).any()

    def test_the_first_step_allocates_the_moments_and_one_block(self):
        # numpy reports its buffers to tracemalloc: m and v, then one block
        # of scratch, not a third parameter-length buffer; the slack covers
        # the block views, about 2.4 KB
        values = build_model(ModelConfig("TransPPRZ", **C7)).params.flat.copy()
        grad = np.random.default_rng(6).normal(size=values.size)
        state = OptimizerState()
        tracemalloc.start()
        try:
            adam_step(values, grad, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.size > 2 * ad.ADAM_BLOCK
        assert state.scratch.nbytes == 8 * ad.ADAM_BLOCK
        assert peak < 2 * values.nbytes + 8 * ad.ADAM_BLOCK + 8192


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
    np.mean, np.var, ndarray.sum and np.stack formulas they replaced, and the
    branch-free sigmoid those of its np.where form, beyond the sizes and
    binary days the golden file pins."""

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

    @staticmethod
    def assert_sigmoid_matches_masks(x):
        got, want = np.asarray(ad._sigmoid(x)), np.asarray(sigmoid_reference(x))
        assert got.dtype == want.dtype == np.float64
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])

    @HOT_PATH_PROPERTY
    @given(hnp.arrays(np.float64, st.sampled_from([(), (3,), (2, 4, 3)]), elements=st.floats()))
    def test_sigmoid_matches_masked_form(self, x):
        # st.floats draws ±0, ±inf, NaN, subnormals and magnitudes up to 1.8e308
        self.assert_sigmoid_matches_masks(x)

    def test_sigmoid_matches_masked_form_at_the_edges(self):
        tiny, big = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
        edges = [0.0, tiny, np.finfo(np.float64).smallest_normal, 1e-300, 36.7,
                 709.0, 709.8, 710.0, 745.0, 745.2, 746.0, 1e308, big, np.inf]
        x = np.array(edges + [-v for v in edges] + [np.nan, -np.nan])
        self.assert_sigmoid_matches_masks(x)
        for v in x:
            self.assert_sigmoid_matches_masks(np.float64(v))

    @HOT_PATH_PROPERTY
    @given(hot_operands())
    def test_mse_loss_matches_mean(self, operands):
        seed, shape, scale = operands
        rng = np.random.default_rng(seed)
        pred, target = scale * rng.normal(size=shape), scale * rng.normal(size=shape)
        loss = ad.mse_loss(Tensor(pred), Tensor(target)).values
        assert loss.shape == () and loss.dtype == np.float64
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
