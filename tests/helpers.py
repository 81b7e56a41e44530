"""Helpers the test modules share."""

import math
from typing import Callable, Sequence

import numpy as np

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """The sum of every element, as a scalar tensor that backward can start from."""
    return ad._record(
        "sum_all", (a,), np.asarray(a.values.sum()),
        lambda g: (np.full(a.values.shape, g.item()),),
    )


def squash_composite(z: ad.Tensor) -> ad.Tensor:
    """(tanh(z) + 1) / 2 from three primitives: the reference for ``ad.squash``."""
    return ad.scale(ad.add_scalar(ad.tanh(z), 1.0), 0.5)


# each one-entry sublayer op and the composite it replaced, kept as its
# reference: case -> (op name, composite).  residual_gate has one case per
# gate shape: one value (scalar) and one per channel (vector).
SUBLAYER_CASES = {
    "residual_norm": ("residual_norm",
                      lambda x, fx, gamma, beta: ad.layer_norm(ad.add(x, fx), gamma, beta)),
    "residual_gate_scalar": ("residual_gate",
                             lambda x, fx, gate: ad.add(x, ad.scale_by(fx, gate))),
    "residual_gate_vector": ("residual_gate",
                             lambda x, fx, gate: ad.add(x, ad.mul_rowvec(fx, gate))),
    "feed_forward": ("feed_forward", lambda x, w1, b1, w2, b2:
                     ad.linear(ad.tanh(ad.linear(x, w1, b1)), w2, b2)),
    "squash": ("squash", squash_composite),
    "project_pair": ("project_pair", lambda a, wa, b, wb:
                     ad.add(ad.matmul(Tensor(a), wa), ad.matmul(Tensor(b), wb))),
}


def sublayer_op(case: str):
    """The one-entry op that the sublayer case ``case`` runs."""
    return getattr(ad, SUBLAYER_CASES[case][0])


def sublayer_case(name: str, lead: tuple = ()):
    """(leaves, build) for the sublayer case ``name`` on (*lead, 3, 4) rows:
    build(op) runs ``op``, the fused op or its composite, where a model
    would, and returns its output and an MSE loss over it."""
    x, w, b = rand((*lead, 3, 4), 81), rand((4, 4), 82, scale=0.5), rand((4,), 83)
    target = Tensor(np.random.default_rng(84).normal(size=(*lead, 3, 4)))
    params = {
        "residual_norm": [rand((4,), 85), rand((4,), 86)],
        "residual_gate_scalar": [rand((), 87)],
        "residual_gate_vector": [rand((4,), 88)],
        "feed_forward": [rand((4, 6), 89, scale=0.5), rand((6,), 90),
                         rand((6, 4), 91, scale=0.5), rand((4,), 92)],
        "squash": [],
        "project_pair": [rand((4, 4), 93), rand((2, 4), 94)],
    }[name]
    days = random_day_matrix(math.prod(lead) * 3, 2, 95).reshape(*lead, 3, 4)
    counts = np.stack([days[..., :2].sum(axis=-1), days[..., 2:].sum(axis=-1)], axis=-1)

    def build(op):
        fx = ad.linear(x, w, b)  # x reaches a residual directly and through fx
        if name.startswith("residual"):
            out = op(x, fx, *params)
        elif name == "feed_forward":
            out = op(fx, *params)
        elif name == "squash":
            out = op(fx)
        else:
            out = op(days, params[0], counts, params[1])
        return out, ad.mse_loss(ad.add(fx, out) if name == "project_pair" else out, target)

    return [x, w, b, *params], build


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-4,
) -> float:
    """Compare analytic gradients of f() against central finite differences.

    ``f`` must rebuild its forward graph on every call and return a scalar
    tensor.  Returns the max over all coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    The default step balances truncation against cancellation noise for
    loss values of order one; much smaller steps make tiny-gradient
    coordinates noise-dominated in 64-bit arithmetic.
    """
    ad.reset_tape()
    analytic = ad.backward(f(), params)
    worst = 0.0
    with ad.no_grad():
        for p, ga in zip(params, analytic):
            flat = p.values.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = f().item()
                flat[i] = orig - eps
                f_minus = f().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                denom = max(1e-8, abs(gflat[i]) + abs(numeric))
                worst = max(worst, abs(gflat[i] - numeric) / denom)
    ad.reset_tape()
    return worst


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
