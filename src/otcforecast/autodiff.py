"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

Operations record entries on a module-level tape as they execute; calling
:func:`backward` on a scalar loss walks the tape once in reverse and
returns the gradients of the requested leaf tensors.  Everything is
64-bit and summation orders are fixed, so a run is bit-reproducible under a
fixed seed.

The tape is process-global and not thread-safe: a graph and its tensors are
meant to be confined to one training run.  Frozen parameter values may be
shared read-only across runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeMismatchError

Array = np.ndarray

LAYER_NORM_EPS = 1e-5  # added to the variance before its square root
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Adam's usual defaults
# values per Adam block: five float64 block slices (~0.6 MiB) stay in a 1 MiB
# L2, and the scratch is 8 * (n - ADAM_BLOCK) bytes smaller than n values
ADAM_BLOCK = 15_000


class Tensor:
    """A shaped float64 buffer; ``requires_grad`` marks it as differentiable."""

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
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
    """Discard all recorded operations."""
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


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


def backward(loss: Tensor, wrt: Sequence[Tensor], out: list[Array] | None = None) -> list[Array]:
    """Return d(loss)/d(leaf) for every leaf tensor in ``wrt``, in order.

    A leaf is a tensor that requires gradients and that no tape entry
    produced (parameters, typically); anything else in ``wrt``, and a leaf
    listed twice, is rejected before the walk.  Each gradient is written into
    its float64 array of ``out``, of its leaf's shape (``params.views(vector)``
    for ``params.tensors()``), or into a fresh one; the arrays are returned.
    A leaf the loss does not reach gets zeros.  The tape is left in place.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not belong to a recorded graph")
    out = [np.empty(t.shape) for t in wrt] if out is None else out
    produced = {id(entry.output) for entry in _TAPE}
    for t in wrt:
        if not t.requires_grad or id(t) in produced:
            raise ContractError(f"backward() differentiates leaf tensors only, got {t!r}")
    if ([g.shape for g in out] != [t.values.shape for t in wrt]
            or {g.dtype for g in out} - {np.dtype(np.float64)}):
        raise ContractError(f"backward() needs {len(wrt)} float64 out arrays of the leaves' shapes")
    leaves = {id(t): grad for t, grad in zip(wrt, out)}
    if len(leaves) < len(wrt):
        raise ContractError("backward() needs each leaf once, got one listed twice")
    unreached = dict(leaves)
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.values)}
    for entry in reversed(_TAPE):
        # every consumer of an output is recorded after it, so its gradient is complete here
        out_grad = flowing.pop(id(entry.output), None)
        if out_grad is None:
            continue
        for tensor, contribution in zip(entry.inputs, entry.vjp(out_grad)):
            if contribution is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in unreached:
                unreached.pop(key)[...] = contribution
            elif key in leaves:
                leaves[key] += contribution  # in place, rounding as current + contribution
            else:
                current = flowing.get(key)
                flowing[key] = contribution if current is None else current + contribution
    for grad in unreached.values():
        grad[...] = 0.0
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def _require_equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _project(x: Array, w: Array) -> Array:
    """(..., k) @ (k, m) as one (N, k) @ (k, m) product."""
    k, m = w.shape
    return (x.reshape(-1, k) @ w).reshape(*x.shape[:-1], m)


def _project_vjp(x: Array, w: Array, g: Array, need_x: bool) -> tuple[Array | None, Array]:
    """(dx, dw) of :func:`_project`; dx is None unless ``need_x``."""
    k, m = w.shape
    g2 = g.reshape(-1, m)
    dx = (g2 @ w.T).reshape(x.shape) if need_x else None
    return dx, x.reshape(-1, k).T @ g2


def _check_linear(op: str, x: Array, w: Array, b: Array) -> None:
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatchError(f"{op}: x {x.shape}, w {w.shape} and b {b.shape} do not fit")


def _linear(x: Array, w: Array, b: Array) -> Array:
    return _project(x, w) + b


def _linear_vjp(x: Array, w: Array, g: Array, need_x: bool) -> tuple[Array | None, Array, Array]:
    """(dx, dw, db) of :func:`_linear`; dx is None unless ``need_x``."""
    return (*_project_vjp(x, w, g, need_x), np.add.reduce(g.reshape(-1, w.shape[1]), axis=0))


def _tanh_vjp(out: Array, g: Array) -> Array:
    return g * (1.0 - out * out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B over the last two axes of A.

    ``b`` is either a 2-D (k, m) matrix shared by every leading index of
    ``a`` (shape (..., k), usually (..., n, k)), or a stack (..., k, m)
    with the same leading axes as ``a`` (..., n, k).  Backward gives
    dA = g Bᵀ and dB = Aᵀ g; for a shared matrix dB sums over the leading
    axes with one (B·n, k)ᵀ @ (B·n, m) product, and dA is skipped when
    ``a`` is a constant (an input window, say).
    """
    av, bv = a.values, b.values
    if av.ndim < 1 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner extents differ: {a.shape} x {b.shape}")
    if bv.ndim == 2:
        return _record("matmul", (a, b), _project(av, bv),
                       lambda g: _project_vjp(av, bv, g, a.requires_grad))
    if av.ndim != bv.ndim or av.shape[:-2] != bv.shape[:-2]:
        raise ShapeMismatchError(f"matmul: leading axes differ: {a.shape} x {b.shape}")
    return _record(
        "matmul", (a, b), av @ bv,
        lambda g: (g @ bv.swapaxes(-1, -2), av.swapaxes(-1, -2) @ g),
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("add", a, b)
    return _record("add", (a, b), a.values + b.values, lambda g: (g, g))


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
    return _record("tanh", (a,), out, lambda g: (_tanh_vjp(out, g),))


def _squash(z: Array) -> tuple[Array, Array]:
    """:func:`squash` on arrays: tanh(z), which its vjp reads, and the output."""
    out = np.tanh(z)
    return out, (out + 1.0) * 0.5


def squash(z: Tensor) -> Tensor:
    """(tanh(z) + 1) / 2, into [0, 1], as one tape entry, bit-identical to
    ``scale(add_scalar(tanh(z), 1.0), 0.5)``."""
    out, squashed = _squash(z.values)
    return _record("squash", (z,), squashed, lambda g: (_tanh_vjp(out, g * 0.5),))


def _sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x) from e = e^-|x|, so exp never overflows.  As 0 <= e <= 1,
    maximum(e, x >= 0) is exactly the numerator (1 if x >= 0, else e); NaN stays NaN."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of (pred - target)^2, as a scalar tensor."""
    _require_equal_shapes("mse_loss", pred, target)
    diff = pred.values - target.values
    n = diff.size
    return _record(
        "mse_loss", (pred, target), np.add.reduce(diff * diff, axis=None) / n,
        lambda g: (g.item() * 2.0 * diff / n,
                   g.item() * (-2.0) * diff / n if target.requires_grad else None),
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
    out = np.add.reduce(table.values[idx_arr], axis=0)

    def vjp(g):
        dt = np.zeros_like(table.values)
        dt[idx_arr] = g
        return (dt,)

    return _record("embedding_bag", (table,), out, vjp)


def _layer_norm(op: str, x: Array, gamma: Array, beta: Array):
    """:func:`layer_norm` on arrays: its output and its vjp g -> (dx, dgamma, dbeta)."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"{op}: gamma/beta must be shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    xv = x.reshape(-1, d)
    # np.mean's and np.var's reductions without their Python wrappers, centering once
    centered = xv - np.add.reduce(xv, axis=1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g):
        g2 = g.reshape(-1, d)
        dgamma = np.add.reduce(g2 * xhat, axis=0)
        dbeta = np.add.reduce(g2, axis=0)
        dxhat = g2 * gamma
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / d)
        )
        return (dx.reshape(x.shape), dgamma, dbeta)

    return (xhat * gamma + beta).reshape(x.shape), vjp


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each last-axis slice to zero mean / unit variance, then affine.

    Population variance, as in the usual formulation.  Any leading axes
    are positions or batch entries; gamma and beta are shared across them.
    """
    out, vjp = _layer_norm("layer_norm", x.values, gamma.values, beta.values)
    return _record("layer_norm", (x, gamma, beta), out, vjp)


@functools.cache
def _causal_mask(n: int) -> Array:
    """Read-only (n, n); True at the columns j > i that row i may not see."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _softmax(sv: Array, causal: bool) -> Array:
    if causal:
        if sv.shape[-2] != sv.shape[-1]:
            raise ShapeMismatchError(f"causal mask needs square scores, got {sv.shape}")
        sv = np.where(_causal_mask(sv.shape[-1]), -np.inf, sv)
    # each row's max as a chain of column maxima: exact like max(axis=-1),
    # and faster on the few columns attention has
    top = sv[..., 0]
    for j in range(1, sv.shape[-1]):
        top = np.maximum(top, sv[..., j])
    e = np.exp(sv - top[..., None])
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_vjp(y: Array, g: Array) -> Array:
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def softmax_rows(s: Tensor, causal: bool = False) -> Tensor:
    """Softmax over the last axis of a (..., rows, cols) score stack.

    The causal mask needs square scores, lets row i see columns j <= i,
    and is shared by every leading index.
    """
    if s.values.ndim < 2:
        raise ShapeMismatchError(f"softmax_rows: expected (..., rows, cols) scores, got {s.shape}")
    y = _softmax(s.values, causal)
    return _record("softmax_rows", (s,), y, lambda g: (_softmax_vjp(y, g),))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Swap the last two axes, or permute all axes in the given order."""
    if axes is None:
        if a.values.ndim < 2:
            raise ShapeMismatchError(f"transpose: expected at least 2-D, got {a.shape}")
        axes = (*range(a.values.ndim - 2), a.values.ndim - 1, a.values.ndim - 2)
    inverse = tuple(np.argsort(axes))
    return _record("transpose", (a,), a.values.transpose(axes), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.values.shape
    return _record("reshape", (a,), a.values.reshape(shape), lambda g: (g.reshape(old),))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of the last axis, on any leading shape."""
    def vjp(g):
        da = np.zeros_like(a.values)
        da[..., start:stop] = g
        return (da,)

    return _record("slice_cols", (a,), a.values[..., start:stop].copy(), vjp)


def _concat(name: str, parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along axis -1 or -2; the vjp slices each part's view of the gradient."""
    out = np.concatenate([p.values for p in parts], axis=axis)
    stops = list(itertools.accumulate(p.shape[axis] for p in parts))
    cuts = [(..., slice(a, b), *(slice(None),) * (-1 - axis)) for a, b in zip([0, *stops], stops)]
    return _record(name, tuple(parts), out, lambda g: tuple(g[cut] for cut in cuts))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    return _concat("concat_cols", parts, -1)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the second-to-last axis."""
    return _concat("concat_rows", parts, -2)


def stack_rows(vecs: Sequence[Tensor]) -> Tensor:
    """Stack 1-D vectors of equal length into a (len(vecs), d) matrix."""
    out = np.array([v.values for v in vecs])
    return _record(
        "stack_rows", tuple(vecs), out,
        lambda g: tuple(g[i] for i in range(len(vecs))),
    )


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Repeat a (..., d) stack of vectors as n identical rows each, giving
    (..., n, d); backward sums over the repeated rows."""
    vv = v.values
    if vv.ndim < 1:
        raise ShapeMismatchError(f"tile_rows: expected at least 1-D, got {v.shape}")
    return _record("tile_rows", (v,), vv[..., None, :].repeat(n, axis=-2),
                   lambda g: (np.add.reduce(g, axis=-2),))


def _positioned(x: Array, pe: Array, start: Array) -> Array:
    """:func:`positioned` with a start row, on arrays; a product by one copies it exactly."""
    return np.concatenate([np.ones((*x.shape[:-2], 1, 1)) * start, x], axis=-2) + pe


def positioned(x: Tensor, pe: Array, start: Tensor | None = None) -> Tensor:
    """A (..., T, d) stack x after the (d,) ``start`` row, if given, plus rows ``pe``: one tape
    entry, bit-identical to ``add(concat_rows([reshape(tile_rows(start, n), ...), x]), pe)``."""
    if x.values.ndim < 2 or pe.shape != (x.shape[-2] + (start is not None), x.shape[-1]):
        raise ShapeMismatchError(f"positioned: positions {pe.shape} for rows {x.shape}")
    if start is None:
        return _record("positioned", (x,), x.values + pe, lambda g: (g,))
    return _record("positioned", (x, start), _positioned(x.values, pe, start.values), lambda g: (
        g[..., 1:, :], np.add.reduce(g[..., 0, :].reshape(-1, pe.shape[1]), axis=0)))


def _check_rowvec(op: str, x: Tensor, v: Tensor) -> int:
    if v.values.ndim != 1 or x.values.ndim < 1 or x.shape[-1] != v.shape[0]:
        raise ShapeMismatchError(f"{op}: incompatible shapes {x.shape} and {v.shape}")
    return v.shape[0]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (k, m) w and an (m,) b as one tape entry, bit-identical
    to ``add_rowvec(matmul(x, w), b)``; dx is skipped for a constant x."""
    xv, wv = x.values, w.values
    _check_linear("linear", xv, wv, b.values)
    return _record("linear", (x, w, b), _linear(xv, wv, b.values),
                   lambda g: _linear_vjp(xv, wv, g, x.requires_grad))


def _feed_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> tuple[Array, Array]:
    """:func:`feed_forward` on arrays: the hidden rows, which its vjp reads, and the output."""
    hidden = np.tanh(_linear(x, w1, b1))
    return hidden, _linear(hidden, w2, b2)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(tanh(linear(x, w1, b1)), w2, b2) as one tape entry,
    bit-identical to that composite; dx is skipped for a constant x."""
    xv, w1v, w2v = x.values, w1.values, w2.values
    _check_linear("feed_forward", xv, w1v, b1.values)
    _check_linear("feed_forward", b1.values, w2v, b2.values)  # b1 has the hidden width
    hidden, out = _feed_forward(xv, w1v, b1.values, w2v, b2.values)

    def vjp(g):
        dh, dw2, db2 = _linear_vjp(hidden, w2v, g, True)
        return (*_linear_vjp(xv, w1v, _tanh_vjp(hidden, dh), x.requires_grad), dw2, db2)

    return _record("feed_forward", (x, w1, b1, w2, b2), out, vjp)


def _project_pair(a: Array, wa: Array, b: Array, wb: Array) -> Array:
    return _project(a, wa) + _project(b, wb)


def project_pair(a, wa: Tensor, b, wb: Tensor) -> Tensor:
    """a @ wa + b @ wb for constant (..., k) and (..., m) arrays and 2-D
    weights, as one tape entry, bit-identical to
    ``add(matmul(Tensor(a), wa), matmul(Tensor(b), wb))``."""
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    wav, wbv = wa.values, wb.values
    if (wav.ndim != 2 or wbv.ndim != 2 or av.shape[:-1] != bv.shape[:-1]
            or av.shape[-1:] != wav.shape[:1] or bv.shape[-1:] != wbv.shape[:1]
            or wav.shape[1] != wbv.shape[1]):
        raise ShapeMismatchError(
            f"project_pair: a {av.shape} @ {wa.shape} and b {bv.shape} @ {wb.shape} do not fit")
    return _record("project_pair", (wa, wb), _project_pair(av, wav, bv, wbv),
                   lambda g: (_project_vjp(av, wav, g, False)[1],
                              _project_vjp(bv, wbv, g, False)[1]))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D vector to every last-axis slice of x (explicit bias broadcast)."""
    d = _check_rowvec("add_rowvec", x, b)
    return _record(
        "add_rowvec", (x, b), x.values + b.values,
        lambda g: (g, np.add.reduce(g.reshape(-1, d), axis=0)),
    )


def _gate_vjp(x: Array, gate: Array, g: Array) -> tuple[Array, Array]:
    """(dx, dgate) of x * gate for a gate broadcast over x's trailing axes:
    one value, or one per channel of x's last axis."""
    return g * gate, np.add.reduce((g * x).reshape(-1, gate.size), axis=0).reshape(gate.shape)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every last-axis slice of x pointwise by a 1-D gate vector."""
    _check_rowvec("mul_rowvec", x, v)
    xv, vv = x.values, v.values
    return _record("mul_rowvec", (x, v), xv * vv, lambda g: _gate_vjp(xv, vv, g))


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor of any shape by a trainable scalar (a 0-d or
    single-element tensor)."""
    if s.values.size != 1:
        raise ShapeMismatchError(f"scale_by: scalar operand has shape {s.shape}")
    av, sv = a.values, s.values
    return _record("scale_by", (a, s), av * sv, lambda g: _gate_vjp(av, sv, g))


# The two residual schemes of a Transformer sublayer: x is its input and
# fx its output.  Each is one tape entry, bit-identical to the composite
# it names, and gives x's gradient first, as that composite's add does.


def residual_norm(x: Tensor, fx: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Post-norm: ``layer_norm(add(x, fx), gamma, beta)``."""
    _require_equal_shapes("residual_norm", x, fx)
    out, vjp = _layer_norm("residual_norm", x.values + fx.values, gamma.values, beta.values)

    def residual_vjp(g):
        dsum, dgamma, dbeta = vjp(g)
        return dsum, dsum, dgamma, dbeta

    return _record("residual_norm", (x, fx, gamma, beta), out, residual_vjp)


def _gate(x: Array, fx: Array, gate: Array) -> Array:
    return x + fx * gate


def residual_gate(x: Tensor, fx: Tensor, gate: Tensor) -> Tensor:
    """A trainable gate of shape () or (d,), one value or one per channel:
    ``add(x, scale_by(fx, gate))`` or ``add(x, mul_rowvec(fx, gate))``."""
    _require_equal_shapes("residual_gate", x, fx)
    fv, gv = fx.values, gate.values
    if gv.shape not in ((), fv.shape[-1:]):
        raise ShapeMismatchError(f"residual_gate: gate {gate.shape} for rows {fx.shape}")
    return _record("residual_gate", (x, fx, gate), _gate(x.values, fv, gv),
                   lambda g: (g, *_gate_vjp(fv, gv, g)))


def _split_heads(p: Array, heads: int, keys: bool = False) -> Array:
    """Split (..., T, d) projected rows into heads, contiguous:
    (..., H, T, d_k), or (..., H, d_k, T) for keys."""
    *lead, t, d = p.shape
    n = len(lead)
    order = (*range(n), n + 1, n + 2, n) if keys else (*range(n), n + 1, n, n + 2)
    return np.ascontiguousarray(p.reshape(*lead, t, heads, d // heads).transpose(order))


def _attend(qh: Array, kh: Array, vh: Array, causal: bool) -> tuple[Array, Array]:
    """Scaled dot-product attention of head-split queries (..., H, T_q, d_k)
    over keys (..., H, d_k, T_k) and values (..., H, T_k, d_k): the softmax
    probabilities and the heads' outputs merged into (..., T_q, H·d_k)."""
    *lead, heads, t_q, d_k = qh.shape
    n = len(lead)
    probs = _softmax((qh @ kh) * (1.0 / math.sqrt(d_k)), causal)
    merged = np.ascontiguousarray((probs @ vh).transpose(*range(n), n + 1, n, n + 2))
    return probs, merged.reshape(*lead, t_q, heads * d_k)


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    *,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    heads: int,
    causal: bool = False,
) -> Tensor:
    """Projected multi-head scaled dot-product attention, as one tape entry.

    Queries are (..., T_q, d) and keys/values (..., T_k, d) with the same
    leading axes.  Per head: softmax(Q'K'ᵀ / sqrt(d_k)) V' over head-split
    projections, merged across heads and output-projected.  All heads run
    in one batched product for the scores and one for the values.  With
    ``causal`` (T_q = T_k) each query attends to keys at or before its own.
    Keys have no bias: it would add q·bk to every score of a query, a
    constant that the softmax over that query's row ignores.
    The forward is :func:`_linear`, :func:`_split_heads` and
    :func:`_attend`, which inference also calls on arrays.

    The backward is written by hand from the head-split Q'/K'/V' and the
    softmax probabilities kept from the forward.  It runs every product,
    copy and sum of the composite of ``matmul``, ``add_rowvec``,
    ``reshape``, ``transpose``, ``scale`` and ``softmax_rows``, and lists
    v, k, q first so x's gradient in self-attention accumulates in that
    composite's reverse tape order: the result is bit-identical to it.
    """
    qs, ks = q.shape, k.shape
    if len(qs) < 2 or ks != v.shape or len(ks) != len(qs) or ks[:-2] != qs[:-2] or ks[-1] != qs[-1]:
        raise ShapeMismatchError(f"multi_head_attention: q {qs}, k {ks}, v {v.shape} do not fit")
    *lead, t_q, d_model = qs
    if d_model % heads != 0:
        raise ConfigurationError(f"d_model={d_model} not divisible by heads={heads}")
    d_k, n = d_model // heads, len(lead)
    # (..., T, H, d_k) <-> (..., H, T, d_k), its own inverse
    rows = (*range(n), n + 1, n, n + 2)
    c = 1.0 / math.sqrt(d_k)
    qh = _split_heads(_linear(q.values, wq.values, bq.values), heads)
    kh = _split_heads(_project(k.values, wk.values), heads, keys=True)
    vh = _split_heads(_linear(v.values, wv.values, bv.values), heads)
    probs, merged = _attend(qh, kh, vh, causal)

    def unsplit(x, w, b, dh):
        dp = dh.transpose(rows).reshape(x.shape)
        db = None if b is None else np.add.reduce(dp.reshape(-1, d_model), axis=0)
        return (*_project_vjp(x.values, w.values, dp, x.requires_grad), db)

    def vjp(g):
        dmerged, dwo, dbo = _linear_vjp(merged, wo.values, g, True)
        dctx = dmerged.reshape(*lead, t_q, heads, d_k).transpose(rows)
        dprobs, dvh = dctx @ vh.swapaxes(-1, -2), probs.swapaxes(-1, -2) @ dctx
        dscores = _softmax_vjp(probs, dprobs) * c
        dqh, dkh = dscores @ kh.swapaxes(-1, -2), qh.swapaxes(-1, -2) @ dscores
        dv, dwv, dbv = unsplit(v, wv, bv, dvh)
        dk, dwk, _ = unsplit(k, wk, None, dkh.swapaxes(-1, -2))
        dq, dwq, dbq = unsplit(q, wq, bq, dqh)
        return dv, dk, dq, dwo, dbo, dwv, dbv, dwk, dwq, dbq

    return _record("multi_head_attention", (v, k, q, wo, bo, wv, bv, wk, wq, bq),
                   _linear(merged, wo.values, bo.values), vjp)


def lstm(projected: Tensor, wh: Tensor) -> Tensor:
    """An LSTM over axis -2 of a (..., T, 4H) input projection, as one tape entry.

    ``wh`` is the (H, 4H) recurrent weight, gate blocks i, f, g, o.  From a
    zero state, step t adds h @ wh to ``projected[..., t, :]``, then sets
    c = σ(f)·c + σ(i)·tanh(g) and h = σ(o)·tanh(c); the final (..., H)
    state is returned.  The backward is backpropagation through time,
    written by hand from the gates and states kept from the forward.  It
    runs every product and sum of the step loop of ``slice_cols``,
    ``matmul``, ``add``, ``sigmoid``, ``tanh`` and ``mul`` in that loop's
    reverse tape order, so the result is bit-identical to it.
    """
    xv, w = projected.values, wh.values
    hidden = w.shape[0] if w.ndim == 2 else 0
    if xv.ndim < 2 or w.shape != (hidden, 4 * hidden) or xv.shape[-1] != 4 * hidden:
        raise ShapeMismatchError(f"lstm: projected {projected.shape} and wh {wh.shape} do not fit")
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
    h = c = np.zeros((*xv.shape[:-2], hidden))
    kept = []  # per step: the h and c it read, its gate activations and tanh of its c
    for t in range(xv.shape[-2]):
        pre = xv[..., t, :] + _project(h, w)
        act = _sigmoid(pre)  # once for all four blocks; g's is then overwritten
        act[..., blocks[2]] = np.tanh(pre[..., blocks[2]])
        i, f, g, o = (act[..., s] for s in blocks)
        new_c = f * c + i * g
        tanh_c = np.tanh(new_c)
        kept.append((h, c, act, tanh_c))
        h, c = o * tanh_c, new_c

    def vjp(gh):
        dx, dw, dh, carry = np.empty_like(xv), None, gh, None
        for t in reversed(range(len(kept))):
            h_prev, c_prev, act, tc = kept[t]
            i, f, g, o = (act[..., s] for s in blocks)
            dc = (dh * o) * (1.0 - tc * tc)
            dc = dc if carry is None else carry + dc
            carry = dc * f
            dact = np.concatenate([dc * g, dc * c_prev, dc * i, dh * tc], axis=-1)
            dpre = dact * act * (1.0 - act)
            dpre[..., blocks[2]] = dact[..., blocks[2]] * (1.0 - g * g)
            dx[..., t, :] = dpre
            # the zero initial state is a constant: no gradient flows out of step 0
            dh, dwt = _project_vjp(h_prev, w, dpre, t > 0)
            dw = dwt if dw is None else dw + dwt
        return dx, dw

    return _record("lstm", (projected, wh), h, vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam's learning rate, the step count and three flat buffers.

    The betas and epsilon are fixed: ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPSILON``.

    The moments ``m`` and ``v`` have the length of the parameter vector and
    ``scratch`` holds one block, ``min(n, ADAM_BLOCK)`` values; the first
    :func:`adam_step` allocates them, and as :func:`backward` fills views of
    one gradient, no later step does.
    """

    learning_rate: float = 0.01
    step: int = 0
    m: Array | None = None
    v: Array | None = None
    scratch: Array | None = None


def adam_step(values: Array, grad: Array, state: OptimizerState) -> None:
    """One bias-corrected Adam update of a flat parameter vector, in place.

    ``values`` and ``grad`` are 1-D float64 vectors of one length, such as
    ``Parameters.flat`` and the vector whose ``params.views`` :func:`backward` fills.
    It runs ``ADAM_BLOCK`` values at a time through one block of scratch, each
    element through the same operations in the same order, so blocks change no bit.
    ``grad`` serves as a second scratch buffer once the moments are
    updated, so it no longer holds the gradient when the call returns.
    No training step after the first allocates a float64 array of that length.
    """
    if values.ndim != 1 or grad.shape != values.shape:
        raise ShapeMismatchError(
            f"adam_step: needs one vector shape, got values {values.shape}, grad {grad.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
        state.scratch = np.empty(min(values.size, ADAM_BLOCK), values.dtype)
    elif state.m.shape != values.shape:
        raise ShapeMismatchError(
            f"adam_step: moments of shape {state.m.shape} for values {values.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for lo in range(0, values.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v, p = grad[block], state.m[block], state.v[block], values[block]
        t = state.scratch[:g.size]
        # the order of operations rounds exactly as
        # values -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.multiply(g, g, out=t)
        t *= 1.0 - b2
        v *= b2
        v += t
        g *= 1.0 - b1
        m *= b1
        m += g
        np.divide(m, bias1, out=t)
        t *= state.learning_rate
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPSILON
        t /= g
        p -= t
