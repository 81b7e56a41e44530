"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

Operations record entries on a module-level tape as they execute; calling
:func:`backward` on a scalar loss walks the tape once in reverse and
accumulates gradients into every tensor that requires them.  Everything is
64-bit and summation orders are fixed, so a run is bit-reproducible under a
fixed seed.

The tape is process-global and not thread-safe: a graph and its tensors are
meant to be confined to one training run.  Frozen parameter values may be
shared read-only across runs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A shaped float64 buffer, optionally carrying a gradient buffer."""

    __slots__ = ("values", "requires_grad", "_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        # ascontiguousarray would silently promote 0-d scalars to shape (1,)
        self.values = arr.copy() if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._grad: Array | None = (
            np.zeros_like(self.values) if self.requires_grad else None
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> Array | None:
        """Gradient buffer, allocated on demand; None for constant tensors."""
        if not self.requires_grad:
            return None
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad.fill(0.0)

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeEntry:
    """One recorded operation: inputs, output, and its backward rule."""

    name: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    vjp: Callable[[Array], tuple[Array | None, ...]]


_TAPE: list[TapeEntry] = []
_RECORDING: bool = True


def reset_tape() -> None:
    """Discard all recorded operations. Parameter grad buffers are untouched."""
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


def tape_entries() -> tuple[TapeEntry, ...]:
    """Snapshot of the recorded graph, in execution order."""
    return tuple(_TAPE)


@contextmanager
def no_grad():
    """Run forward computations without recording them on the tape."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


def _record(name, inputs, out_values, vjp) -> Tensor:
    out = Tensor(out_values)
    if _RECORDING and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.append(TapeEntry(name, tuple(inputs), out, vjp))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into the grad buffer of every tensor.

    Repeated calls without zeroing grads accumulate (two identical calls
    double the gradients).  Gradient flow during one call uses private
    buffers, so earlier accumulated gradients never leak into propagation.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not belong to a recorded graph")
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.values)}
    seen: dict[int, Tensor] = {id(loss): loss}
    for entry in reversed(_TAPE):
        out_grad = flowing.get(id(entry.output))
        if out_grad is None:
            continue
        for tensor, contribution in zip(entry.inputs, entry.vjp(out_grad)):
            if contribution is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            current = flowing.get(key)
            flowing[key] = contribution if current is None else current + contribution
            seen[key] = tensor
    for key, grad in flowing.items():
        tensor = seen[key]
        tensor.grad[...] = tensor.grad + grad


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def _require_equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B for 2-D operands; backward gives dA = g Bᵀ, dB = Aᵀ g."""
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeMismatchError(f"matmul: operands must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner extents differ: {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    return _record(
        "matmul", (a, b), av @ bv,
        lambda g: (g @ bv.T, av.T @ g),
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("add", a, b)
    return _record("add", (a, b), a.values + b.values, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("sub", a, b)
    return _record("sub", (a, b), a.values - b.values, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Pointwise product; both operands must have identical shapes."""
    _require_equal_shapes("mul", a, b)
    av, bv = a.values, b.values
    return _record("mul", (a, b), av * bv, lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scale", (a,), a.values * c, lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _record("add_scalar", (a,), a.values + float(c), lambda g: (g,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _record("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def sum_all(a: Tensor) -> Tensor:
    return _record(
        "sum_all", (a,), np.asarray(a.values.sum()),
        lambda g: (np.full(a.values.shape, g.item()),),
    )


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of (pred - target)^2, as a scalar tensor."""
    _require_equal_shapes("mse_loss", pred, target)
    diff = pred.values - target.values
    n = diff.size
    return _record(
        "mse_loss", (pred, target), np.asarray((diff * diff).mean()),
        lambda g: (g.item() * 2.0 * diff / n, g.item() * (-2.0) * diff / n),
    )


def embedding_bag(table: Tensor, indices) -> Tensor:
    """Sum of the table rows selected by a set of indices.

    Rows are summed in ascending index order for reproducibility; an empty
    index set yields the zero vector (a constant).
    """
    if table.values.ndim != 2:
        raise ShapeMismatchError(f"embedding_bag: table must be 2-D, got {table.shape}")
    rows, dim = table.shape
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if i < 0 or i >= rows:
            raise IndexError(f"embedding_bag: index {i} out of range for {rows} rows")
    if not idx:
        return Tensor(np.zeros(dim))
    idx_arr = np.asarray(idx, dtype=np.intp)
    out = table.values[idx_arr].sum(axis=0)

    def vjp(g):
        dt = np.zeros_like(table.values)
        dt[idx_arr] = g
        return (dt,)

    return _record("embedding_bag", (table,), out, vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis slice to zero mean / unit variance, then affine.

    Population variance, as in the usual formulation.  Accepts 1-D vectors
    or 2-D (positions x channels) matrices.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm: gamma/beta must be shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    xv = x.values.reshape(-1, d)
    mean = xv.mean(axis=1, keepdims=True)
    var = xv.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean) * inv
    out = (xhat * gamma.values + beta.values).reshape(x.shape)

    def vjp(g):
        g2 = g.reshape(-1, d)
        dgamma = (g2 * xhat).sum(axis=0)
        dbeta = g2.sum(axis=0)
        dxhat = g2 * gamma.values
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return (dx.reshape(x.shape), dgamma, dbeta)

    return _record("layer_norm", (x, gamma, beta), out, vjp)


def softmax_rows(s: Tensor, causal: bool = False) -> Tensor:
    """Row-wise softmax of a score matrix, with an optional causal mask.

    The causal mask forbids column j > row i and requires a square matrix.
    """
    sv = s.values
    if sv.ndim != 2:
        raise ShapeMismatchError(f"softmax_rows: expected 2-D scores, got {s.shape}")
    if causal:
        rows, cols = sv.shape
        if rows != cols:
            raise ShapeMismatchError(f"softmax_rows: causal mask needs square scores, got {s.shape}")
        sv = np.where(np.triu(np.ones((rows, cols), dtype=bool), k=1), -np.inf, sv)
    shifted = sv - sv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax_rows", (s,), y, vjp)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeMismatchError(f"transpose: expected 2-D, got {a.shape}")
    return _record("transpose", (a,), a.values.T.copy(), lambda g: (g.T,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.values.shape
    return _record("reshape", (a,), a.values.reshape(shape), lambda g: (g.reshape(old),))


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def vjp(g):
        da = np.zeros_like(a.values)
        da[start:stop] = g
        return (da,)

    return _record("slice_rows", (a,), a.values[start:stop].copy(), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def vjp(g):
        da = np.zeros_like(a.values)
        da[:, start:stop] = g
        return (da,)

    return _record("slice_cols", (a,), a.values[:, start:stop].copy(), vjp)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.shape[1] for p in parts]
    out = np.concatenate([p.values for p in parts], axis=1)

    def vjp(g):
        grads, at = [], 0
        for w in widths:
            grads.append(g[:, at:at + w])
            at += w
        return tuple(grads)

    return _record("concat_cols", tuple(parts), out, vjp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    heights = [p.shape[0] for p in parts]
    out = np.concatenate([p.values for p in parts], axis=0)

    def vjp(g):
        grads, at = [], 0
        for h in heights:
            grads.append(g[at:at + h])
            at += h
        return tuple(grads)

    return _record("concat_rows", tuple(parts), out, vjp)


def stack_rows(vecs: Sequence[Tensor]) -> Tensor:
    """Stack 1-D vectors of equal length into a (len(vecs), d) matrix."""
    out = np.stack([v.values for v in vecs], axis=0)
    return _record(
        "stack_rows", tuple(vecs), out,
        lambda g: tuple(g[i] for i in range(len(vecs))),
    )


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Repeat a 1-D vector as n identical rows; backward sums over rows."""
    if v.values.ndim != 1:
        raise ShapeMismatchError(f"tile_rows: expected 1-D, got {v.shape}")
    out = np.tile(v.values, (n, 1))
    return _record("tile_rows", (v,), out, lambda g: (g.sum(axis=0),))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D vector to every row of a matrix (explicit bias broadcast)."""
    if x.values.ndim != 2 or b.values.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"add_rowvec: incompatible shapes {x.shape} and {b.shape}")
    return _record("add_rowvec", (x, b), x.values + b.values, lambda g: (g, g.sum(axis=0)))


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of a matrix pointwise by a 1-D gate vector."""
    if x.values.ndim != 2 or v.values.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeMismatchError(f"mul_rowvec: incompatible shapes {x.shape} and {v.shape}")
    xv, vv = x.values, v.values
    return _record(
        "mul_rowvec", (x, v), xv * vv,
        lambda g: (g * vv, (g * xv).sum(axis=0)),
    )


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a trainable scalar (a 0-d or single-element tensor)."""
    if s.values.size != 1:
        raise ShapeMismatchError(f"scale_by: scalar operand has shape {s.shape}")
    av, sv = a.values, s.values
    return _record(
        "scale_by", (a, s), av * sv,
        lambda g: (g * sv, np.asarray((g * av).sum()).reshape(sv.shape)),
    )


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    *,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    bk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    heads: int,
    causal: bool = False,
) -> Tensor:
    """Projected multi-head scaled dot-product attention.

    Per head: softmax(Q'K'ᵀ / sqrt(d_k)) V' over head-sliced projections,
    concatenated across heads and output-projected.  With ``causal`` the
    query at position i may only attend to keys at positions <= i.
    """
    d_model = q.shape[1]
    if d_model % heads != 0:
        raise ConfigurationError(f"d_model={d_model} not divisible by heads={heads}")
    d_k = d_model // heads
    qp = add_rowvec(matmul(q, wq), bq)
    kp = add_rowvec(matmul(k, wk), bk)
    vp = add_rowvec(matmul(v, wv), bv)
    inv_sqrt_dk = 1.0 / math.sqrt(d_k)
    head_outputs = []
    for h in range(heads):
        lo, hi = h * d_k, (h + 1) * d_k
        scores = scale(matmul(slice_cols(qp, lo, hi), transpose(slice_cols(kp, lo, hi))), inv_sqrt_dk)
        weights = softmax_rows(scores, causal=causal)
        head_outputs.append(matmul(weights, slice_cols(vp, lo, hi)))
    merged = head_outputs[0] if heads == 1 else concat_cols(head_outputs)
    return add_rowvec(matmul(merged, wo), bo)


# ---------------------------------------------------------------------------
# gradient oracle and optimizer
# ---------------------------------------------------------------------------


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
    reset_tape()
    zero_grads(params)
    backward(f())
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    with no_grad():
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
    reset_tape()
    return worst


@dataclass
class OptimizerState:
    """Adam moment buffers plus hyperparameters; buffers shape-match params."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)


def adam_step(params: Sequence[Tensor], grads: Sequence[Array], state: OptimizerState) -> None:
    """One bias-corrected Adam update, applied to param values in place."""
    if len(params) != len(grads):
        raise ShapeMismatchError(f"adam_step: {len(params)} params vs {len(grads)} grads")
    if not state.m:
        state.m = [np.zeros_like(p.values) for p in params]
        state.v = [np.zeros_like(p.values) for p in params]
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.values.shape != g.shape or m.shape != g.shape:
            raise ShapeMismatchError(
                f"adam_step: param shape {p.values.shape} vs grad shape {g.shape}"
            )
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.values -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
