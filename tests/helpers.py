"""Helpers the test modules share."""

import builtins
import contextlib
import io
import math
import re
import struct
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

import otcforecast.autodiff as ad
from otcforecast.autodiff import Tensor
from otcforecast.models import ModelConfig, Parameters


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
"""


def tiny_config(**settings) -> str:
    """:data:`TINY_CONFIG` with each setting's line set to its value; a setting it
    does not hold goes at the end of its ``[run]`` section."""
    text = TINY_CONFIG
    for key, value in settings.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        text += "" if found else f"{key} = {value}\n"
    return text


class Setting(NamedTuple):
    """One run setting's row: a non-default raw value that parse_config takes and
    one that it refuses; for a [market] count, the least value both parse_config
    and MarketSpec take; and any more typed values its spec must refuse."""

    valid: str
    invalid: str
    floor: int | None = None
    refused: tuple = ()


# one row per RunConfig field.  For a setting a spec takes, the spec must refuse
# the floor less one where there is a floor, else the invalid value parsed, and
# each of ``refused``
SETTING_VALUES = {
    "days": Setting("30", "0", 1),
    "bonds": Setting("7", "-1", 0),
    "periodic_dealers": Setting("3", "-1", 0),
    "sparse_dealers": Setting("0", "2.5", 0),
    "dense_dealers": Setting("1", "x", 0),
    "periodic_min_period": Setting("3", "0", 1),
    "periodic_max_period": Setting("9", "0", 1),
    "periodic_min_bonds": Setting("1", "-1", 0),
    "periodic_max_bonds": Setting("8", "", 0),
    "periodic_buy_prob": Setting("0.25", "1.5"),
    "sparse_rate": Setting("0.0", "-0.1"),
    "dense_rate": Setting("2.5", "-1"),
    "dense_min_bonds": Setting("10", "-1", 0),
    "dense_max_bonds": Setting("200", "-1", 0),
    "cancellation_rate": Setting("1.0", "2"),
    "top_dealers": Setting("12", "0"),
    "top_bonds": Setting("9", "0"),
    "drop_top_bonds": Setting("yes", "maybe"),
    "t_in": Setting("7", "0"),
    "t_out": Setting("2", "0"),
    "stride": Setting("3", "0"),
    "train_fraction": Setting("0.75", "1.0"),
    "kind": Setting("LSTM", "MLP"),
    "d_model": Setting("32", "0"),
    "heads": Setting("8", "0"),
    "n_layers": Setting("1", "0"),
    "d_ff": Setting("16", "0"),
    "hidden": Setting("16", "0"),
    "epochs": Setting("0", "-1"),
    "batch_size": Setting("4", "0"),
    "learning_rate": Setting("0.5", "0", refused=(-0.01,)),
    "threshold": Setting("0.3", "1"),
    "seed": Setting("-7", "1.5"),
    "granularity": Setting("cluster", "global"),
    "output_dir": Setting("runs/other", "out\0x"),
    "eval_mode": Setting("union", "max"),
}


def packed_histories(*ids, days=3, vocab_size=2, magic=b"OTCF", version=1) -> bytes:
    """A histories.bin packed by hand, past the checks of ``save_histories``: the
    header, the dealer count, then per raw id its length prefix, the id and an
    all-zero days x 2V bitmap."""
    bitmap = bytes((days * 2 * vocab_size + 7) // 8)
    return (struct.pack("<4sIIII", magic, version, days, vocab_size, len(ids))
            + b"".join(struct.pack("<H", len(ident)) + ident + bitmap for ident in ids))


_ONE_DEALER = packed_histories(b"D0")  # 26 bytes: header, count, id length, id, bitmap

# each histories.bin that load_histories refuses, with the words of the
# ArtifactError that follow its path; `cluster`, `train`, `eval` and `compare`
# each exit 2 with them
HISTORIES_DEFECTS = {
    "empty-id": (packed_histories(b"D0", b""), "dealer 1 has an empty id"),
    "non-utf8-id": (packed_histories(b"D0", b"D\xff"), "dealer 1 id is not UTF-8"),
    # at individual granularity the two dealers' windows would merge into one unit
    "repeated-id": (packed_histories(b"D0", b"D0"), "dealer 1 repeats the id 'D0' of dealer 0"),
    "no-dealer": (packed_histories(), "0 dealers, 3 days and 2 bonds"),
    "no-day": (packed_histories(b"D0", days=0), "1 dealers, 0 days and 2 bonds"),
    "no-bond": (packed_histories(b"D0", vocab_size=0), "1 dealers, 3 days and 0 bonds"),
    **{f"cut-{cut}": (_ONE_DEALER[:cut], f"truncated at byte {cut} while reading {what}")
       for cut, what in ((0, "the header"), (15, "the header"), (19, "the dealer count"),
                         (21, "the id length of dealer 0"), (23, "the id of dealer 0"),
                         (25, "the bitmap of dealer D0"))},
    "trailing-byte": (_ONE_DEALER + b"\0", "1 trailing bytes after 1 dealers"),
    "bad-magic": (packed_histories(b"D0", magic=b"XXXX"), "bad magic b'XXXX'"),
    "bad-version": (packed_histories(b"D0", version=9), "unsupported version 9"),
}


def payload_edit(edit):
    """A checkpoint edit: the file's bytes with its float64 payload as ``edit`` leaves it."""
    def rewrite(blob):
        header, payload = blob.split(b"\n", 1)
        values = np.frombuffer(payload, dtype="<f8").copy()
        edit(values)
        return header + b"\n" + values.tobytes()
    return rewrite


# each checkpoint that check_checkpoint refuses, as an edit of a valid file's
# bytes, with the words of the ArtifactError that follow its path; `eval` exits 2
# with them
CHECKPOINT_DEFECTS = {
    "cut-0": (lambda blob: b"", "truncated manifest line"),
    "cut-7": (lambda blob: blob[:7], "truncated manifest line"),
    "cut-half": (lambda blob: blob[:len(blob) // 2], "truncated payload"),
    "cut-last": (lambda blob: blob[:-1], "truncated payload"),
    "nan-everywhere": (payload_edit(lambda values: values.fill(np.nan)),
                       "non-finite parameter value"),
    "one-inf": (payload_edit(lambda values: values.__setitem__(7, np.inf)),
                "non-finite parameter value"),
    "trailing-value": (lambda blob: blob + np.float64(1.5).tobytes(), "8 trailing payload bytes"),
    "trailing-byte": (lambda blob: blob + b"\0", "1 trailing payload bytes"),
    "unclosed-manifest": (lambda blob: b"{" + blob,
                          "malformed manifest (Expecting property name enclosed in double quotes"),
    "non-utf8-manifest": (lambda blob: b"\xff" + blob,
                          "malformed manifest ('utf-8' codec can't decode byte 0xff"),
    "list-manifest": (lambda blob: b"[3]\n" + blob.split(b"\n", 1)[1],
                      "malformed manifest (a JSON list, not an object)"),
    "no-magic": (lambda blob: b'{"entries":3}\n' + blob.split(b"\n", 1)[1],
                 "magic = None, expected 'otcforecast-checkpoint'"),
}


C7 = dict(vocab_size=20, t_in=5, t_out=5, d_model=32, heads=4, n_layers=2, d_ff=64)  # criterion 7


def toy_config(kind, vocab_size=8, **overrides) -> ModelConfig:
    """A model config small enough to train and check by finite differences in a blink."""
    return ModelConfig(**{"kind": kind, "vocab_size": vocab_size, "t_in": 3, "t_out": 2,
                          "d_model": 4, "heads": 2, "n_layers": 1, "d_ff": 8, "hidden": 4,
                          "seed": 0, **overrides})


def perturbed(model, seed, scale=0.3):
    """``model`` with seeded normals added to its parameters: off the zero
    gates, every path (encoder, cross-attention) reaches the output."""
    model.params.flat += np.random.default_rng(seed).normal(scale=scale,
                                                            size=model.params.flat.size)
    return model


def as_float32(model):
    """``model`` with each tensor's values cast to float32 and repacked into a new
    ``params``: the one way to reach float32, as every array follows ``params.flat``."""
    tensors = dict(zip(model.params.names(), model.params.tensors()))
    for tensor in tensors.values():
        tensor.values = tensor.values.astype(np.float32)
    model.params = Parameters(tensors)
    return model


class FixedModel:
    """Evaluation stub that predicts the same (T_out, 2V) matrix for every
    window of a (..., T_in, 2V) input stack."""

    class _Config:
        kind = "stub"

    config = _Config()

    def __init__(self, predictions):
        self.predictions = predictions

    def predict(self, input_days):
        return np.broadcast_to(self.predictions, np.shape(input_days)[:-2] + self.predictions.shape)


class _CutFile:
    """A file whose first write puts half of its bytes on disk, then raises ``exc``."""

    def __init__(self, fh, exc):
        self._fh, self._exc = fh, exc

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise self._exc("interrupted mid-write")


@contextlib.contextmanager
def interrupted_writes(monkeypatch, path, exc):
    """In the block, cut every file opened for writing whose name starts with
    ``path``'s name by ``exc`` in its first write; after it, check that ``path``
    kept its bytes and that no ``*.tmp`` file is left next to it."""
    old, real_open = path.read_bytes(), io.open

    def cut_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+") and Path(file).name.startswith(path.name):
            return _CutFile(fh, exc)
        return fh

    with monkeypatch.context() as patched:
        for module in (builtins, io):  # pathlib opens through io.open
            patched.setattr(module, "open", cut_open)
        yield
    assert path.read_bytes() == old
    assert not list(path.parent.glob("*.tmp"))


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """The sum of every element, as a scalar tensor that backward can start from."""
    return ad._record(
        "sum_all", (a,), np.asarray(a.values.sum()),
        lambda g: (np.full(a.values.shape, g.item()),),
    )


def squash_composite(z: ad.Tensor) -> ad.Tensor:
    """(tanh(z) + 1) / 2 from three primitives: the reference for ``ad.squash``."""
    return ad.scale(ad.add_scalar(ad.tanh(z), 1.0), 0.5)


def positioned_composite(x: ad.Tensor, pe, start: ad.Tensor | None = None) -> ad.Tensor:
    """The start row and the position rows from ``tile_rows``, ``reshape``,
    ``concat_rows`` and ``add``: the composite ``ad.positioned`` replaced,
    kept as its reference."""
    if start is not None:
        lead, d = x.shape[:-2], x.shape[-1]
        x = ad.concat_rows([ad.reshape(ad.tile_rows(start, math.prod(lead)), (*lead, 1, d)), x])
    return ad.add(x, Tensor(pe[None].repeat(math.prod(x.shape[:-2]), axis=0).reshape(x.shape)))


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
# methods directly, or compute without masks: the same formulas through
# np.mean, np.var, ndarray.sum, np.stack and np.where, which must give the
# same bytes.


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


def sigmoid_reference(x):
    """``ad._sigmoid`` with its numerator and exp argument selected by masks."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # e^-x where x >= 0, else e^x
    return np.where(pos, 1.0, e) / (1.0 + e)


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


ATTENTION = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")  # multi_head_attention's weights


def attention_params(seed):
    """Seeded normal (4, 4) weights and (4,) biases of one attention block."""
    rng = np.random.default_rng(seed)
    return {n: Tensor(rng.normal(scale=0.5, size=(4, 4) if n[0] == "w" else (4,)),
                      requires_grad=True) for n in ATTENTION}


def positioned_case(lead, rows, start):
    """(x, pe, start, target) for ``ad.positioned`` on (*lead, rows, 4) rows x."""
    x = rand((*lead, rows, 4), 60)
    pe = np.random.default_rng(61).normal(size=(rows + start, 4))
    target = Tensor(np.random.default_rng(62).normal(size=(*lead, rows + start, 4)))
    return x, pe, rand((4,), 63) if start else None, target


def squares(op, *leaves):
    """(leaves, loss) for the sum of squares of ``op(*leaves)``, rebuilt on every call."""
    def loss():
        out = op(*leaves)
        return sum_all(ad.mul(out, out))
    return list(leaves), loss


def attention_case(causal, q, *kv, seed):
    """(leaves, loss) for attention of ``q`` over ``kv`` (``q`` itself when
    empty) under seeded weights."""
    params = attention_params(seed)
    keys, values = kv or (q, q)
    leaves = [q, *kv, *params.values()]
    return squares(lambda *_: ad.multi_head_attention(q, keys, values, heads=2, causal=causal,
                                                      **params), *leaves)


def positioned_fd(rows, start):
    x, pe, sos, _ = positioned_case((2,), rows, start)
    return squares(lambda x, *s: ad.tanh(ad.positioned(x, pe, *s)), x, *([sos] if start else []))


def structural_fd():
    a, v, g, bias = rand((4, 6), 28), rand((3,), 29), rand((3,), 30), rand((6,), 31)
    alpha = Tensor(np.asarray(0.7), requires_grad=True)

    def op(a, v, g, alpha, bias):
        merged = ad.concat_cols([ad.mul_rowvec(ad.slice_cols(a, 0, 3), v),
                                 ad.scale_by(ad.slice_cols(a, 3, 6), alpha)])
        merged = ad.add_rowvec(merged, bias)
        rebuilt = ad.concat_rows([ad.transpose(ad.transpose(merged)), merged])
        tiled = ad.tile_rows(ad.reshape(ad.stack_rows([g, g]), (6,)), 2)
        return ad.concat_cols([ad.reshape(rebuilt, (2, 24)), tiled])
    return squares(op, a, v, g, alpha, bias)


def batched_structural(v, a, b):
    rows = ad.concat_rows([b, ad.mul(ad.tile_rows(v, 3), a)])  # (2, 4, 4)
    return ad.transpose(ad.concat_cols([rows, ad.transpose(rows)]), (1, 2, 0))  # (4, 8, 2)


def sublayer_fd(case, lead):
    leaves, build = sublayer_case(case, lead)
    return leaves, lambda: build(sublayer_op(case))[1]


# name -> a function returning (leaves, loss) for a finite-difference check of
# the ops in the loss: every op, on one window and on a batch of them
FD_CASES = {
    "matmul": lambda: squares(ad.matmul, rand((3, 4), 2), rand((4, 2), 3)),
    "matmul-shared-weight": lambda: squares(ad.matmul, rand((2, 3, 4), 1), rand((4, 2), 2)),
    "matmul-stacked": lambda: squares(ad.matmul, rand((2, 3, 4), 3), rand((2, 4, 5), 4)),
    "add": lambda: squares(ad.add, rand((5,), 5), rand((5,), 6)),
    "mul": lambda: squares(ad.mul, rand((5,), 7), rand((5,), 8)),
    "tanh-sigmoid": lambda: squares(lambda u, v: ad.mul(ad.tanh(u), ad.sigmoid(v)),
                                    rand((5,), 32), rand((5,), 33)),
    "scale-add_scalar": lambda: squares(lambda u: ad.scale(ad.add_scalar(u, 0.3), -1.7),
                                        rand((5,), 34)),
    "mse_loss": lambda: squares(ad.mse_loss, rand((4, 3), 35), rand((4, 3), 36)),
    "linear": lambda: squares(ad.linear, rand((2, 3, 4), 77), rand((4, 5), 78), rand((5,), 79)),
    "add_rowvec": lambda: squares(ad.add_rowvec, rand((2, 3, 4), 9), rand((4,), 10)),
    "mul_rowvec": lambda: squares(ad.mul_rowvec, rand((2, 3, 4), 11), rand((4,), 12)),
    "scale_by": lambda: squares(ad.scale_by, rand((2, 3, 4), 13), rand((), 14)),
    "embedding_bag": lambda: squares(lambda t: ad.embedding_bag(t, (0, 2, 5)), rand((6, 4), 11)),
    "layer_norm": lambda: squares(ad.layer_norm, rand((3, 5), 12), rand((5,), 13), rand((5,), 14)),
    "layer_norm-batched": lambda: squares(ad.layer_norm, rand((2, 3, 5), 14), rand((5,), 15),
                                          rand((5,), 16)),
    "softmax": lambda: squares(ad.softmax_rows, rand((3, 5), 18, scale=2.0)),
    "softmax-causal": lambda: squares(lambda s: ad.softmax_rows(s, causal=True),
                                      rand((2, 3, 4, 4), 17, scale=2.0)),
    "attention-causal": lambda: attention_case(True, rand((3, 4), 26), seed=25),
    "attention-causal-batched": lambda: attention_case(True, rand((2, 3, 4), 22), seed=21),
    "attention-cross": lambda: attention_case(False, rand((2, 3, 4), 55), rand((2, 5, 4), 56),
                                              rand((2, 5, 4), 57), seed=54),
    "lstm": lambda: squares(ad.lstm, rand((2, 3, 8), 73), rand((2, 8), 74, scale=0.8)),
    "slice_cols": lambda: squares(lambda a: ad.concat_cols([ad.slice_cols(a, 0, 2),
                                                            ad.slice_cols(a, 1, 5)]),
                                  rand((2, 3, 5), 28)),
    "structural": structural_fd,
    "structural-batched": lambda: squares(batched_structural, rand((2, 4), 18),
                                          rand((2, 3, 4), 19), rand((2, 1, 4), 20)),
    **{f"positioned-{name}": lambda rows=rows, start=start: positioned_fd(rows, start)
       for name, rows, start in (("rows", 4, False), ("start_and_rows", 4, True),
                                 ("start_only", 0, True))},
    **{f"{case}{suffix}": lambda case=case, lead=lead: sublayer_fd(case, lead)
       for case in SUBLAYER_CASES for suffix, lead in (("", ()), ("-batched", (2, 3)))},
}


def assert_same_bits(leaves, build, *ops):
    """``build(op)`` gives (output, loss) under each of two ops; their outputs and
    the gradients of ``leaves`` must agree bit for bit."""
    results = []
    for op in ops:
        ad.reset_tape()
        out, loss = build(op)
        results.append([out.values, *ad.backward(loss, leaves)])
    fused, composite = results
    assert len(fused) == len(composite) == len(leaves) + 1
    for got, expected in zip(fused, composite):
        assert np.array_equal(got, expected)


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
