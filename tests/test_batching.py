"""The batch axis: batched models and harness against the per-window path.

Tolerances are fixed from float64 before any comparison: a batched pass
sums the same terms in another order, so values agree to 1e-12 absolute
and gradients to 1e-12 absolute plus 1e-9 relative.  The batched ops are
checked by finite differences with the others (``helpers.FD_CASES``).
"""

import numpy as np
import pytest

import otcforecast.autodiff as ad
from otcforecast import harness
from otcforecast.autodiff import Tensor
from otcforecast.harness import evaluate, score_units, tier_rows
from otcforecast.market import Sample
from otcforecast.models import MODEL_KINDS, build_model

from helpers import perturbed, toy_config

ATOL = 1e-12
GRAD_RTOL = 1e-9


def perturbed_model(kind, seed=0):
    """A two-layer toy model moved off its initialization."""
    return perturbed(build_model(toy_config(kind, n_layers=2, seed=seed)), seed + 100)


def windows(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, 3, 16)) < density).astype(np.uint8)
    t = (rng.random((n, 2, 16)) < density).astype(np.uint8)
    return x, t


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
