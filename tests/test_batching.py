"""The batch axis: batched ops, models and harness against the per-window path.

Tolerances are fixed from float64 before any comparison: a batched pass
sums the same terms in another order, so values agree to 1e-12 absolute
and gradients to 1e-12 absolute plus 1e-9 relative; finite-difference
checks of ops with a leading batch axis stay below 1e-6.
"""

import numpy as np
import pytest

import otcforecast.autodiff as ad
from otcforecast import harness
from otcforecast.autodiff import Tensor
from otcforecast.errors import ContractError, ShapeMismatchError
from otcforecast.harness import evaluate, score_units, tier_rows
from otcforecast.market import Sample
from otcforecast.models import MODEL_KINDS, ModelConfig, build_model

from helpers import (SUBLAYER_CASES, finite_diff_check, rand, sublayer_case, sublayer_op,
                     sum_all)

ATOL = 1e-12
GRAD_RTOL = 1e-9
FD_BOUND = 1e-6


def perturbed_model(kind, seed=0):
    """A toy model moved off its initialization, so zero-init gates open
    every path (encoder, cross-attention) to the comparison."""
    model = build_model(ModelConfig(kind=kind, vocab_size=8, t_in=3, t_out=2, d_model=4,
                                    heads=2, n_layers=2, d_ff=8, hidden=4, seed=seed))
    rng = np.random.default_rng(seed + 100)
    for t in model.params.tensors():
        t.values += rng.normal(scale=0.3, size=t.shape)
    return model


def windows(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, 3, 16)) < density).astype(np.uint8)
    t = (rng.random((n, 2, 16)) < density).astype(np.uint8)
    return x, t


class TestBatchedOps:
    def test_matmul_shared_weight(self):
        a, b = rand((2, 3, 4), 1), rand((4, 2), 2)
        assert finite_diff_check(lambda: sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                                 [a, b]) < FD_BOUND

    def test_matmul_stacked_operands(self):
        a, b = rand((2, 3, 4), 3), rand((2, 4, 5), 4)
        assert finite_diff_check(lambda: sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                                 [a, b]) < FD_BOUND

    def test_matmul_rows_match_unbatched_product(self):
        a, b = rand((3, 2, 4), 5, grad=False), rand((4, 3), 6, grad=False)
        out = ad.matmul(a, b).values
        for i in range(3):
            np.testing.assert_allclose(out[i], a.values[i] @ b.values, rtol=0, atol=ATOL)

    def test_matmul_leading_axes_must_agree(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3, 4\)"):
            ad.matmul(rand((2, 3, 4), 7), rand((3, 4, 5), 8))

    def test_add_rowvec(self):
        x, b = rand((2, 3, 4), 9), rand((4,), 10)
        assert finite_diff_check(
            lambda: sum_all(ad.mul(ad.add_rowvec(x, b), ad.add_rowvec(x, b))), [x, b]
        ) < FD_BOUND

    def test_mul_rowvec(self):
        x, v = rand((2, 3, 4), 11), rand((4,), 12)
        assert finite_diff_check(
            lambda: sum_all(ad.mul(ad.mul_rowvec(x, v), ad.mul_rowvec(x, v))), [x, v]
        ) < FD_BOUND

    def test_scale_by(self):
        a, s = rand((2, 3, 4), 13), Tensor(np.asarray(0.7), requires_grad=True)
        assert finite_diff_check(
            lambda: sum_all(ad.mul(ad.scale_by(a, s), ad.scale_by(a, s))), [a, s]
        ) < FD_BOUND

    def test_layer_norm(self):
        x, gamma, beta = rand((2, 3, 5), 14), rand((5,), 15), rand((5,), 16)
        assert finite_diff_check(
            lambda: sum_all(ad.mul(ad.layer_norm(x, gamma, beta),
                                   ad.layer_norm(x, gamma, beta))),
            [x, gamma, beta],
        ) < FD_BOUND

    @pytest.mark.parametrize("case", list(SUBLAYER_CASES))
    def test_sublayer_op(self, case):
        leaves, build = sublayer_case(case, (2, 3))
        assert finite_diff_check(lambda: build(sublayer_op(case))[1], leaves) < FD_BOUND

    def test_causal_softmax(self):
        s = rand((2, 3, 4, 4), 17, scale=2.0)
        assert finite_diff_check(
            lambda: sum_all(ad.mul(ad.softmax_rows(s, causal=True),
                                   ad.softmax_rows(s, causal=True))), [s]
        ) < FD_BOUND
        y = ad.softmax_rows(Tensor(s.values), causal=True).values
        assert np.array_equal(np.triu(y, k=1), np.zeros_like(y))

    def test_structural_ops(self):
        v, a, b = rand((2, 4), 18), rand((2, 3, 4), 19), rand((2, 1, 4), 20)

        def f():
            tiled = ad.tile_rows(v, 3)  # (2, 3, 4)
            rows = ad.concat_rows([b, ad.mul(tiled, a)])  # (2, 4, 4)
            cols = ad.concat_cols([rows, ad.transpose(rows)])  # (2, 4, 8)
            moved = ad.transpose(cols, (1, 2, 0))  # (4, 8, 2)
            return sum_all(ad.mul(moved, moved))

        assert finite_diff_check(f, [v, a, b]) < FD_BOUND

    def test_slice_cols_on_leading_axes(self):
        a = rand((2, 3, 5), 28)
        assert ad.slice_cols(a, 1, 4).shape == (2, 3, 3)

        def f():
            left, right = ad.slice_cols(a, 0, 2), ad.slice_cols(a, 1, 5)
            return ad.add(sum_all(ad.mul(left, left)), sum_all(ad.mul(right, right)))

        assert finite_diff_check(f, [a]) < FD_BOUND

    def attention_params(self, seed):
        rng = np.random.default_rng(seed)
        names = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
        return {n: Tensor(rng.normal(scale=0.5, size=(4, 4) if n[0] == "w" else (4,)),
                          requires_grad=True) for n in names}

    @pytest.mark.parametrize("causal", [True, False])
    def test_multi_head_attention(self, causal):
        # causal self-attention, and cross-attention onto a longer memory
        params = self.attention_params(21)
        x, memory = rand((2, 3, 4), 22), rand((2, 5, 4), 23)
        keys = x if causal else memory
        target = Tensor(np.random.default_rng(24).normal(size=(2, 3, 4)))

        def f():
            y = ad.multi_head_attention(x, keys, keys, heads=2, causal=causal, **params)
            return ad.mse_loss(y, target)

        assert finite_diff_check(f, [x, memory, *params.values()]) < FD_BOUND

    def test_multi_head_attention_rows_match_unbatched(self):
        params = self.attention_params(25)
        x = rand((3, 4, 4), 26, grad=False)
        batched = ad.multi_head_attention(x, x, x, heads=2, causal=True, **params).values
        for i in range(3):
            xi = Tensor(x.values[i])
            single = ad.multi_head_attention(xi, xi, xi, heads=2, causal=True, **params).values
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=ATOL)

    def test_backward_writes_only_leaves(self):
        w = rand((2, 3), 27)
        hidden = ad.tanh(w)
        loss = sum_all(ad.mul(hidden, hidden))
        (grad,) = ad.backward(loss, [w])
        assert grad.shape == (2, 3) and np.abs(grad).sum() > 0
        with pytest.raises(ContractError):
            ad.backward(loss, [hidden])


@pytest.mark.parametrize("kind", MODEL_KINDS)
class TestBatchedModels:
    def test_forward_equals_stacked_per_window_forward(self, kind):
        model = perturbed_model(kind)
        x, t = windows(5, 1)
        with ad.no_grad():
            batched = model.forward(x, teacher=t).values
            single = np.stack([model.forward(x[i], teacher=t[i]).values for i in range(5)])
            nested = model.forward(x[:4].reshape(2, 2, 3, 16),
                                   teacher=t[:4].reshape(2, 2, 2, 16)).values
        assert batched.shape == (5, 2, 16) and nested.shape == (2, 2, 2, 16)
        np.testing.assert_allclose(batched, single, rtol=0, atol=ATOL)
        np.testing.assert_allclose(nested.reshape(4, 2, 16), single[:4], rtol=0, atol=ATOL)

    def test_batch_loss_gradient_is_mean_of_per_window_gradients(self, kind):
        model = perturbed_model(kind, seed=2)
        params = model.params.tensors()
        x, t = windows(4, 3)

        def grads(inputs, targets):
            ad.reset_tape()
            pred = model.forward(inputs, teacher=targets)
            return ad.backward(ad.mse_loss(pred, Tensor(targets.astype(np.float64))), params)

        batched = grads(x, t)
        per_window = [grads(x[i], t[i]) for i in range(4)]
        for name, grad, *singles in zip(model.params.names(), batched, *per_window):
            np.testing.assert_allclose(grad, np.mean(singles, axis=0),
                                       rtol=GRAD_RTOL, atol=ATOL, err_msg=name)

    def test_predict_matches_per_window_predict(self, kind):
        model = perturbed_model(kind, seed=4)
        x, _ = windows(6, 5)
        batched = model.predict(x)
        single = np.stack([model.predict(w) for w in x])
        assert batched.shape == (6, 2, 16)
        np.testing.assert_array_equal(batched >= 0.5, single >= 0.5)
        np.testing.assert_allclose(batched, single, rtol=0, atol=ATOL)


class TestBatchedHarness:
    def samples(self):
        x, t = windows(7, 6, density=0.4)
        return [Sample(f"D{i // 3}", i, x[i], t[i]) for i in range(7)]

    @pytest.mark.parametrize("mode", ["per_day", "union"])
    def test_chunked_evaluate_counts_equal_per_window_sums(self, monkeypatch, mode):
        model = perturbed_model("TransCTE", seed=6)
        samples = self.samples()
        labels = {"D0": 2, "D1": 0, "D2": 2}
        monkeypatch.setattr(harness, "EVAL_CHUNK", 3)
        report = evaluate(model, samples, 0.5, mode=mode)
        table = score_units("TransCTE", [("single", [], samples)], [model], 0.5, mode, labels)
        rows = tier_rows("TransCTE", table)
        expected = {}
        for s in samples:
            one = evaluate(model, [s], 0.5, mode=mode)
            counts = expected.setdefault(labels[s.dealer_id], np.zeros(4, dtype=np.int64))
            counts += (one.tp, one.fp, one.fn, one.tn)
        assert [cluster for cluster, _ in rows] == ["0", "2", "all"]
        for (_, row), label in zip(rows, (0, 2)):
            assert [row.tp, row.fp, row.fn, row.tn] == expected[label].tolist()
        pooled = sum(expected.values()).tolist()
        assert [report.tp, report.fp, report.fn, report.tn] == pooled
        all_row = rows[-1][1]
        assert [all_row.tp, all_row.fp, all_row.fn, all_row.tn] == pooled
