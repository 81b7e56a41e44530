"""The eight-model zoo: FC baselines, LSTMs, and four Transformer variants.

The Transformer variants differ along two axes.  Input representation:
either an affine projection of the raw 2V multi-hot day vector, or a
co-trading embedding (CTE) that sums one trainable vector per traded bond
plus a buy/sell action vector, shared between encoder and decoder.
Residual scheme: post-norm (LayerNorm), or x + gate ⊙ fx with a trainable
gate initialized at zero and shared by all sublayers of a layer.  TransRE's
gate is one scalar (ReZero) and TransPPRZ's one value per channel; the
scalar is the one-value case of the vector, and one op serves both.

Every model maps a (..., T_in, 2V) stack of input windows to a
(..., T_out, 2V) stack of predictions with entries in [0, 1] (outputs pass
through (tanh + 1) / 2).  The leading axes are a batch: one forward pass
serves a whole mini-batch, and a single (T_in, 2V) window has no leading
axis.  The FC and recurrent baselines predict one day vector, tiled over the
output window.  Arrays follow ``params.flat``'s dtype (float64 as drawn); day
vectors take it once, where they enter: in ``_windows``, in the ops
``embed_days`` calls, and in ``predict``'s feedback.

Each parameter is named once, where it is drawn: the builder hands back
its tensor, and every model keeps the tensors it draws in small tuples and
tables, in the order the forward pass reads them.  A Transformer's
per-layer tables hold the attention blocks keyed by
``multi_head_attention``'s weight keywords, the feed-forward's four
tensors, and per sublayer its (gamma, beta) or its layer's shared (gate,).
Training records one tape entry per input sequence (``positioned``) and
per sublayer op.  Inference reads the tensors' ``values``, views of
``params.flat``, once per ``predict`` call and runs on them the array rules
that the ops' forwards call, such as ``autodiff._attend_out``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArtifactError, ConfigurationError, ContractError, ShapeMismatchError
from .market import atomic_write
from .seeding import rng_for

# (input embedding, residual scheme) per transformer kind; scalar and vector
# name the shape of the gate, () or (d_model,)
_TRANSFORMER_MODES = {
    "TransFV": ("affine", "norm"),
    "TransCTE": ("cte", "norm"),
    "TransRE": ("affine", "scalar"),
    "TransPPRZ": ("cte", "vector"),
}

TRANSFORMER_KINDS = tuple(_TRANSFORMER_MODES)

MODEL_KINDS = ("FCSum", "FCConcat", "LSTM", "BiLSTM", *TRANSFORMER_KINDS)

FEEDBACK_THRESHOLD = 0.5  # binarization of fed-back predictions at inference


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    vocab_size: int
    t_in: int
    t_out: int
    d_model: int = 64
    heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        for name in ("vocab_size", "t_in", "t_out", "d_model", "heads", "n_layers", "d_ff", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind in TRANSFORMER_KINDS:
            if self.d_model % self.heads != 0:
                raise ConfigurationError(
                    f"d_model={self.d_model} not divisible by heads={self.heads}"
                )
            if self.d_model % 2 != 0:
                raise ConfigurationError("positional encoding needs an even d_model")


class Parameters:
    """Ordered, uniquely named trainable tensors packed into one vector.

    The constructor copies the tensors' values, in insertion (:meth:`names`)
    order, into :attr:`flat`, one contiguous vector of their common dtype, and
    rebinds each tensor's ``values`` to its :meth:`views` of it; the tensors
    themselves are kept, so ``params[name]`` is the tensor the caller passed.
    A snapshot is ``flat.copy()`` and a restore is ``flat[:] = snapshot``.  A
    pickled or deep-copied one repacks its copied tensors into its own ``flat``.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)
        self.flat = np.concatenate([t.values.reshape(-1) for t in self.tensors()])
        for t, view in zip(self.tensors(), self.views(self.flat)):
            t.values = view

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Each tensor's view of a vector laid out like :attr:`flat`, in :meth:`names` order."""
        if vector.shape != self.flat.shape or not vector.flags.c_contiguous:
            raise ContractError(f"views() needs a C-contiguous vector of {self.flat.size}")
        ends = np.cumsum([0, *(t.values.size for t in self.tensors())]).tolist()
        return [vector[a:b].reshape(t.shape) for t, a, b in zip(self.tensors(), ends, ends[1:])]

    def __reduce__(self):
        return Parameters, (self._tensors,)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())


class _Builder:
    """Draws parameter initializations in a fixed order from one generator;
    each call names one parameter and returns its tensor, for the model to keep."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.tensors: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        self.tensors[name] = tensor = Tensor(values, requires_grad=True)
        return tensor

    def draw(self, shape, fan_in: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return self.rng.uniform(-bound, bound, size=shape)

    def matrix(self, name: str, rows: int, cols: int) -> Tensor:
        return self.add(name, self.draw((rows, cols), rows))

    def zeros(self, name: str, shape=()) -> Tensor:
        return self.add(name, np.zeros(shape))

    def ones(self, name: str, n: int) -> Tensor:
        return self.add(name, np.ones(n))


@functools.cache
def positional_encoding(length: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal position matrix: sin on even channels, cos on odd ones,
    computed in float64.  Built once per shape and dtype, and read-only."""
    if d_model % 2 != 0:
        raise ConfigurationError(f"positional encoding needs even d_model, got {d_model}")
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    pe = np.zeros((length, d_model), dtype)
    pe[:, 0::2] = np.sin(positions * freqs)
    pe[:, 1::2] = np.cos(positions * freqs)
    pe.flags.writeable = False
    return pe


def _cte_inputs(days, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The (..., V) traded bonds and (..., 2) buy and sell counts of (..., 2V)
    days, in the counts' dtype (bool days sum as integers).  The co-trading
    embedding, per day a sum of bond plus action vectors over traded bonds
    (zero if none), is (X_buy + X_sell) @ bonds + [n_buy, n_sell] @ actions."""
    counts = np.add.reduce(days.reshape(*days.shape[:-1], 2, v), axis=-1)
    return np.add(days[..., :v], days[..., v:], dtype=counts.dtype), counts


def _windows(model, days, rows: int, what: str = "input") -> np.ndarray:
    """Validate a (..., rows, 2V) stack of day vectors and cast it to the
    dtype of ``model``'s parameters."""
    data, width = np.asarray(days, model.params.flat.dtype), 2 * model.config.vocab_size
    if data.ndim < 2 or data.shape[-2:] != (rows, width):
        raise ShapeMismatchError(f"{what} shape {data.shape} does not end in {(rows, width)}")
    return data


class FCModel:
    """Three affine layers with tanh; the head output is tiled over T_out.
    The first two layers are one ``feed_forward`` entry."""

    def __init__(self, config: ModelConfig):
        self.config = config
        width = 2 * config.vocab_size
        in_width = width if config.kind == "FCSum" else config.t_in * width
        hidden = config.hidden
        b = _Builder(rng_for(config.seed, "init", config.kind))
        self._hidden = (b.matrix("fc.w1", in_width, hidden), b.zeros("fc.b1", hidden),
                        b.matrix("fc.w2", hidden, hidden), b.zeros("fc.b2", hidden))
        self._readout = (b.matrix("fc.w3", hidden, width), b.zeros("fc.b3", width))
        self.params = Parameters(b.tensors)

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(self, input_days, cfg.t_in)
        if cfg.kind == "FCSum":
            x = Tensor(np.add.reduce(data, axis=-2))
        else:
            x = Tensor(data.reshape(*data.shape[:-2], -1))
        h = ad.tanh(ad.feed_forward(x, *self._hidden))
        day = ad.squash(ad.linear(h, *self._readout))
        return ad.tile_rows(day, cfg.t_out)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(input_days).values


class RecurrentModel:
    """LSTM / BiLSTM over the day vectors, read out from the final state(s).

    A direction holds (``wx`` (2V, 4H), ``wh`` (H, 4H), ``b`` (4H)), gate
    blocks i, f, g, o: the stacked-gate layout of PyTorch's ``nn.LSTM``.
    All T days are projected in one product; the recurrence is one
    ``ad.lstm`` tape entry with a hand-written backward."""

    def __init__(self, config: ModelConfig):
        self.config = config
        width = 2 * config.vocab_size
        hidden = config.hidden
        b = _Builder(rng_for(config.seed, "init", config.kind))
        self._directions = []
        for direction in ("fwd", "bwd") if config.kind == "BiLSTM" else ("fwd",):
            # gate by gate, the input block then the recurrent one
            wx, wh = zip(*[(b.draw((width, hidden), width), b.draw((hidden, hidden), hidden))
                           for _ in "ifgo"])
            self._directions.append((b.add(f"lstm.{direction}.wx", np.concatenate(wx, axis=1)),
                                     b.add(f"lstm.{direction}.wh", np.concatenate(wh, axis=1)),
                                     b.zeros(f"lstm.{direction}.b", 4 * hidden)))
        readout_width = hidden * len(self._directions)
        self._readout = (b.matrix("readout.w", readout_width, width), b.zeros("readout.b", width))
        self.params = Parameters(b.tensors)

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(self, input_days, cfg.t_in)
        # each direction steps over its days, forwards or reversed, to its final (..., H) state
        states = [ad.lstm(ad.linear(Tensor(days), wx, bias), wh)
                  for days, (wx, wh, bias) in zip((data, data[..., ::-1, :]), self._directions)]
        h = ad.concat_cols(states) if cfg.kind == "BiLSTM" else states[0]
        day = ad.squash(ad.linear(h, *self._readout))
        return ad.tile_rows(day, cfg.t_out)

    predict = FCModel.predict  # its own binding, so wrapping one class's predict spares the other


class TransformerModel:
    """Encoder-decoder Transformer with configurable embedding and residuals."""

    def __init__(self, config: ModelConfig):
        if config.kind not in _TRANSFORMER_MODES:
            raise ConfigurationError(f"{config.kind!r} is not a transformer kind")
        self.config = config
        self.embed_mode, self.residual_mode = _TRANSFORMER_MODES[config.kind]
        # a sublayer's residual as a training op and on arrays: layer_norm(x + fx)
        # with the sublayer's rule (gamma, beta), or x + gate ⊙ fx with the layer's
        # rule (gate,), zero at init: one value (scalar) or one per channel (vector)
        self._residual, self._residual_values = (
            (ad.residual_norm, ad._post_norm) if self.residual_mode == "norm"
            else (ad.residual_gate, ad._gate))
        d, width = config.d_model, 2 * config.vocab_size
        b = _Builder(rng_for(config.seed, "init", config.kind))
        if self.embed_mode == "affine":
            self._embedding = (b.matrix("embed.w", width, d), b.zeros("embed.b", d))
        else:
            # lookup tables scale with the embedding width, not the row count
            self._embedding = (b.add("cte.bonds", b.draw((config.vocab_size, d), d)),
                               b.add("cte.actions", b.draw((2, d), d)))
        self._sos = b.add("decoder.sos", b.draw(d, d))
        # every encoder layer, then every decoder layer: the checkpoint's layout
        n = range(config.n_layers)
        self._encoder = [self._layer(b, f"encoder.l{i}", ("attn",)) for i in n]
        self._decoder = [self._layer(b, f"decoder.l{i}", ("self", "cross")) for i in n]
        self._readout = (b.matrix("head.w", d, width), b.zeros("head.b", width))
        self.params = Parameters(b.tensors)

    def _layer(self, b: _Builder, name: str, blocks: tuple[str, ...]) -> tuple:
        """Draw layer ``name``; return its (attention blocks, feed-forward, residual rules)."""
        d, d_ff = self.config.d_model, self.config.d_ff
        attention = []
        for block in blocks:
            weights = {}
            for which in "qkvo":
                weights[f"w{which}"] = b.matrix(f"{name}.{block}.w{which}", d, d)
                if which != "k":  # the softmax ignores a key bias
                    weights[f"b{which}"] = b.zeros(f"{name}.{block}.b{which}", d)
            attention.append(weights)
        ff = (b.matrix(f"{name}.ff.w1", d, d_ff), b.zeros(f"{name}.ff.b1", d_ff),
              b.matrix(f"{name}.ff.w2", d_ff, d), b.zeros(f"{name}.ff.b2", d))
        # one norm per sublayer (the blocks, then ff), or one gate per layer
        if self.residual_mode != "norm":
            gate = b.zeros(f"{name}.gate", () if self.residual_mode == "scalar" else d)
            return tuple(attention), ff, ((gate,),) * (len(blocks) + 1)
        return tuple(attention), ff, tuple((b.ones(f"{name}.norm{j}.gamma", d),
                                            b.zeros(f"{name}.norm{j}.beta", d))
                                           for j in range(1, len(blocks) + 2))

    # ---- forward pieces -------------------------------------------------

    def embed_days(self, days: np.ndarray) -> Tensor:
        """Shared input embedding of (..., 2V) encoder and decoder day vectors."""
        if self.embed_mode == "affine":
            return ad.linear(Tensor(days), *self._embedding)
        traded, counts = _cte_inputs(days, self.config.vocab_size)
        return ad.project_pair(traded, self._embedding[0], counts, self._embedding[1])

    def encode(self, input_days: np.ndarray, trace: list | None = None) -> Tensor:
        cfg = self.config
        data = _windows(self, input_days, cfg.t_in)
        x = ad.positioned(self.embed_days(data),
                          positional_encoding(cfg.t_in, cfg.d_model, data.dtype))
        for i, ((attn,), ff, (r1, r2)) in enumerate(self._encoder):
            x = self._residual(x, ad.multi_head_attention(x, x, x, heads=cfg.heads, **attn), *r1)
            x = self._residual(x, ad.feed_forward(x, *ff), *r2)
            if trace is not None:
                trace.append((f"encoder.l{i}", x.values))
        return x

    def _decode(self, decoder_input: Tensor, memory: Tensor, trace: list | None = None) -> Tensor:
        """Decode every position of ``decoder_input`` against the encoder memory."""
        attention = functools.partial(ad.multi_head_attention, heads=self.config.heads)
        y = decoder_input
        for i, ((own, cross), ff, (r1, r2, r3)) in enumerate(self._decoder):
            y = self._residual(y, attention(y, y, y, causal=True, **own), *r1)
            y = self._residual(y, attention(y, memory, memory, **cross), *r2)
            y = self._residual(y, ad.feed_forward(y, *ff), *r3)
            if trace is not None:
                trace.append((f"decoder.l{i}", y.values))
        return y

    def forward(
        self,
        input_days: np.ndarray,
        teacher: np.ndarray | None = None,
        trace: list | None = None,
    ) -> Tensor:
        """Teacher-forced forward pass producing all T_out day predictions."""
        cfg = self.config
        if teacher is None:
            raise ContractError("transformer training forward needs teacher day vectors")
        teacher = _windows(self, teacher, cfg.t_out, "teacher")
        if teacher.shape[:-2] != np.shape(input_days)[:-2]:
            raise ShapeMismatchError(
                f"teacher shape {teacher.shape} does not match input shape {np.shape(input_days)}"
            )
        memory = self.encode(input_days, trace=trace)
        y = ad.positioned(self.embed_days(teacher[..., :-1, :]),
                          positional_encoding(cfg.t_out, cfg.d_model, teacher.dtype), self._sos)
        y = self._decode(y, memory, trace=trace)
        return ad.squash(ad.linear(y, *self._readout))

    # ---- inference on plain arrays --------------------------------------

    def _embed_values(self, days: np.ndarray, weights: list) -> np.ndarray:
        """:meth:`embed_days` on arrays, with the embedding's ``weights`` values."""
        if self.embed_mode == "affine":
            return ad._linear(days, *weights)
        traded, counts = _cte_inputs(days, self.config.vocab_size)
        return ad._project_pair(traded, weights[0], counts, weights[1])

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        """Autoregressive inference, feeding back thresholded predictions.

        All windows of a (..., T_in, 2V) stack advance in lockstep, on plain
        arrays through the ops' forward helpers, recording nothing.  The
        memory's keys and values are projected once; a step decodes only the
        newest position, whose one query row sees every cached one unmasked."""
        cfg = self.config
        d, heads, dtype = cfg.d_model, cfg.heads, self.params.flat.dtype
        embed = functools.partial(self._embed_values, weights=[t.values for t in self._embedding])
        residual = self._residual_values

        def attend(rows, block, kh, vh):
            """The rows' queries over the head-split keys and values, unmasked."""
            return ad._attend_out(ad._query_heads(rows, block, heads), kh, vh, block, False)[2]

        x = embed(_windows(self, input_days, cfg.t_in)) + positional_encoding(cfg.t_in, d, dtype)
        for (attn,), ff, (r1, r2) in map(_layer_values, self._encoder):
            x = residual(x, attend(x, attn, *ad._key_value_heads(x, x, attn, heads)), *r1)
            x = residual(x, ad._feed_forward(x, *ff)[1], *r2)
        lead = x.shape[:-2]
        decoder = [_layer_values(layer) for layer in self._decoder]
        # per decoder layer: the memory's keys and values, then those decoded so far
        caches = [[*ad._key_value_heads(x, x, cross, heads),
                   np.zeros((*lead, heads, d // heads, 0), dtype),
                   np.zeros((*lead, heads, 0, d // heads), dtype)]
                  for (_, cross), _, _ in decoder]
        del x  # decoding does not read it: free it before the caches grow
        readout = [t.values for t in self._readout]
        pe = positional_encoding(cfg.t_out, d, dtype)
        y = ad._positioned(np.zeros((*lead, 0, d), dtype), pe[:1], self._sos.values)
        rows = []
        for step in range(1, cfg.t_out + 1):
            for ((own, cross), ff, (r1, r2, r3)), cache in zip(decoder, caches):
                kh, vh = ad._key_value_heads(y, y, own, heads)
                cache[2] = np.concatenate([cache[2], kh], axis=-1)
                cache[3] = np.concatenate([cache[3], vh], axis=-2)
                y = residual(y, attend(y, own, cache[2], cache[3]), *r1)
                y = residual(y, attend(y, cross, cache[0], cache[1]), *r2)
                y = residual(y, ad._feed_forward(y, *ff)[1], *r3)
            rows.append(ad._squash(ad._linear(y, *readout))[1])
            if step < cfg.t_out:
                y = embed((rows[-1] >= FEEDBACK_THRESHOLD).astype(dtype)) + pe[step:step + 1]
        return np.concatenate(rows, axis=-2)


def _layer_values(layer: tuple) -> tuple:
    """A layer table with each tensor replaced by its values, views of
    ``params.flat``: read once per ``predict`` call, never kept across calls."""
    attention, ff, rules = layer
    return ([{w: t.values for w, t in block.items()} for block in attention],
            [t.values for t in ff], [[t.values for t in rule] for rule in rules])


def build_model(config: ModelConfig):
    """Instantiate the configured model kind with seeded initialization."""
    if config.kind in ("FCSum", "FCConcat"):
        return FCModel(config)
    if config.kind in ("LSTM", "BiLSTM"):
        return RecurrentModel(config)
    return TransformerModel(config)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


CHECKPOINT_MAGIC = "otcforecast-checkpoint"
CHECKPOINT_VERSION = 9
MANIFEST_LIMIT = 1 << 16  # bytes read for the manifest line, newline included


def _manifest(config: ModelConfig, trained_on: dict) -> dict:
    """Magic, version, every ``config`` field, then the ``trained_on`` fields."""
    return {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
            **asdict(config), **trained_on}


def save_checkpoint(path, model, trained_on: dict) -> None:
    """:func:`_manifest`'s record as one JSON line + ``params.flat`` as little-endian
    f64, written through :func:`market.atomic_write` with no copy of the vector."""
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(_manifest(model.config, trained_on), separators=(",", ":")).encode())
        fh.write(b"\n")
        fh.write(model.params.flat.astype("<f8", copy=False))


def check_checkpoint(path, model, trained_on: dict) -> np.ndarray:
    """Check a :func:`save_checkpoint` file against ``model``'s config and the
    ``trained_on`` record it must have been saved with; return its
    parameter vector, for ``model.params.flat``.

    Raises ArtifactError, in this order, unless the manifest line ends
    within its first ``MANIFEST_LIMIT`` bytes and parses as a JSON object;
    unless it holds every field of :func:`_manifest`'s record with the same
    value (the message names the first that differs, with both values) and
    no other; unless the payload holds exactly ``model``'s parameter
    count; and unless every parameter value is finite.  The payload is
    measured before it is read, and the run config built ``model``, so a
    manifest cannot size what is read.
    """
    with open(path, "rb") as fh:
        header = fh.readline(MANIFEST_LIMIT)
        payload_bytes = fh.seek(0, os.SEEK_END) - len(header)
    if not header.endswith(b"\n"):
        raise ArtifactError(f"{path}: truncated manifest line")
    try:
        stored = json.loads(header.decode("utf-8"))
        if not isinstance(stored, dict):
            raise ValueError(f"a JSON {type(stored).__name__}, not an object")
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ArtifactError(f"{path}: malformed manifest ({exc})") from exc
    record = _manifest(model.config, trained_on)
    for name, value in record.items():
        if stored.get(name) != value:
            raise ArtifactError(f"{path}: {name} = {stored.get(name)!r}, expected {value!r}")
    unknown = [name for name in stored if name not in record]
    if unknown:
        raise ArtifactError(f"{path}: unknown manifest field {unknown[0]!r}")
    expected = 8 * model.params.flat.size
    if payload_bytes < expected:
        raise ArtifactError(f"{path}: truncated payload: {payload_bytes} of {expected} bytes")
    if payload_bytes > expected:
        raise ArtifactError(f"{path}: {payload_bytes - expected} trailing payload bytes")
    values = np.fromfile(path, dtype="<f8", offset=len(header))
    if not np.isfinite(values).all():
        raise ArtifactError(f"{path}: non-finite parameter value in the payload")
    return values
