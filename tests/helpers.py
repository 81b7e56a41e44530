"""Helpers the test modules share."""

import math
from typing import Callable, Sequence

import numpy as np

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor


# a market, model and run small enough for a whole CLI pipeline in a second;
# format it with the output directory as ``out``
TINY_CONFIG = """\
[market]
days = 30
bonds = 6
periodic_dealers = 3
sparse_dealers = 2
dense_dealers = 1
periodic_min_period = 2
periodic_max_period = 4
periodic_min_bonds = 1
periodic_max_bonds = 3
dense_rate = 2.0
dense_min_bonds = 3
dense_max_bonds = 6
cancellation_rate = 0.05

[filters]
top_dealers = 6
top_bonds = 6

[window]
t_in = 3
t_out = 2
stride = 2

[split]
train_fraction = 0.8

[model]
kind = TransPPRZ
d_model = 8
heads = 2
n_layers = 1
d_ff = 8
hidden = 8

[train]
epochs = 1
batch_size = 8
learning_rate = 0.005

[run]
seed = 3
granularity = single
output_dir = {out}
probe_samples = 8
"""


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


# References for the hot helpers that call ufunc reductions and ndarray
# methods directly: the same formulas through np.mean, np.var, ndarray.sum
# and np.stack, which must give the same bytes.


def layer_norm_reference(x, gamma, beta):
    """``ad._layer_norm``'s output and vjp with ``.mean`` and ``.var``."""
    d = x.shape[-1]
    xv = x.reshape(-1, d)
    mean = xv.mean(axis=1, keepdims=True)
    var = xv.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (xv - mean) * inv

    def vjp(g):
        g2 = g.reshape(-1, d)
        dgamma = (g2 * xhat).sum(axis=0)
        dbeta = g2.sum(axis=0)
        dxhat = g2 * gamma
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return (dx.reshape(x.shape), dgamma, dbeta)

    return (xhat * gamma + beta).reshape(x.shape), vjp


def softmax_reference(sv, causal):
    """``ad._softmax`` with ``.sum`` for the row totals."""
    if causal:
        sv = np.where(ad._causal_mask(sv.shape[-1]), -np.inf, sv)
    top = sv[..., 0]
    for j in range(1, sv.shape[-1]):
        top = np.maximum(top, sv[..., j])
    e = np.exp(sv - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp_reference(y, g):
    """``ad._softmax_vjp`` with ``.sum``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def mse_reference(pred, target):
    """``ad.mse_loss``'s value with ``.mean()``."""
    diff = pred - target
    return np.asarray((diff * diff).mean())


def cte_inputs_reference(days, v):
    """``models._cte_inputs`` as two sums and an ``np.stack``."""
    days = np.asarray(days, dtype=np.float64)
    buys, sells = days[..., :v], days[..., v:]
    return buys + sells, np.stack([buys.sum(axis=-1), sells.sum(axis=-1)], axis=-1)


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
