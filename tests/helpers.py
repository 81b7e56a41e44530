"""Helpers the test modules share."""

import numpy as np

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """The sum of every element, as a scalar tensor that backward can start from."""
    return ad._record(
        "sum_all", (a,), np.asarray(a.values.sum()),
        lambda g: (np.full(a.values.shape, g.item()),),
    )


def rand(shape, seed, scale=1.0, grad=True):
    """A tensor of seeded standard normals times ``scale``."""
    return Tensor(scale * np.random.default_rng(seed).normal(size=shape), requires_grad=grad)


def random_day_matrix(rows, vocab_size, seed, density=0.3):
    """``rows`` seeded multi-hot days of width 2 * ``vocab_size``."""
    rng = np.random.default_rng(seed)
    return (rng.random((rows, 2 * vocab_size)) < density).astype(np.uint8)


def initial_loss(model, sample):
    """The untrained model's MSE on one window."""
    with ad.no_grad():
        pred = model.forward(sample.input_days, teacher=sample.target_days)
    return float(((pred.values - sample.target_days) ** 2).mean())
