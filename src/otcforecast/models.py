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
serves a whole mini-batch, and a single (T_in, 2V) window is the case with
no leading axis.  The FC and recurrent baselines predict a single day
vector that is tiled over the output window.

A Transformer looks each parameter up once, when it is built, into
per-layer tables of its tensors: attention blocks keyed by
``multi_head_attention``'s weight keywords, the feed-forward's four
tensors, and per sublayer its (gamma, beta) or its layer's shared (gate,).
Training records one tape entry per sublayer op on those tensors.
Inference reads their ``values``, views of ``params.flat``, once per
``predict`` call and runs the same rules on them through the ops' forward
helpers.  Each call also concatenates a self-attention block's wq|wk|wv
into one (d, 3d) matrix, so that a decode step makes one product for its
newest row; a copy kept across calls would go stale, as training and
checkpoint loads write in place.
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

    The constructor copies the arrays, in insertion (:meth:`names`) order,
    into :attr:`flat`, one contiguous float64 vector, and each tensor's
    ``values`` is a view of it.  A snapshot is ``flat.copy()`` and a
    restore is ``flat[:] = snapshot``.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._tensors = {name: Tensor(values, requires_grad=True) for name, values in arrays.items()}
        self.flat = np.empty(sum(t.values.size for t in self._tensors.values()))
        offset = 0
        for t in self._tensors.values():
            view = self.flat[offset:offset + t.values.size].reshape(t.values.shape)
            view[...] = t.values
            t.values = view
            offset += view.size

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())


class _Builder:
    """Draws parameter initializations in a fixed order from one generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self.arrays:
            raise ContractError(f"duplicate parameter name {name!r}")
        self.arrays[name] = values

    def draw(self, rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(rows)
        return self.rng.uniform(-bound, bound, size=(rows, cols))

    def matrix(self, name: str, rows: int, cols: int) -> None:
        self.add(name, self.draw(rows, cols))

    def table(self, name: str, rows: int, cols: int) -> None:
        # lookup tables scale with the embedding width, not the row count
        bound = 1.0 / math.sqrt(cols)
        self.add(name, self.rng.uniform(-bound, bound, size=(rows, cols)))

    def vector(self, name: str, n: int) -> None:
        bound = 1.0 / math.sqrt(n)
        self.add(name, self.rng.uniform(-bound, bound, size=n))

    def zeros(self, name: str, shape=()) -> None:
        self.add(name, np.zeros(shape))

    def ones(self, name: str, n: int) -> None:
        self.add(name, np.ones(n))


@functools.cache
def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal position matrix: sin on even channels, cos on odd ones.
    Built once per shape and read-only."""
    if d_model % 2 != 0:
        raise ConfigurationError(f"positional encoding needs even d_model, got {d_model}")
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(positions * freqs)
    pe[:, 1::2] = np.cos(positions * freqs)
    pe.flags.writeable = False
    return pe


def _cte_inputs(days, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The (..., V) traded bonds and (..., 2) buy and sell counts of (..., 2V)
    days, whose co-trading embedding (per day, the sum over traded bonds of
    the bond vector plus the buy or sell action vector) is (X_buy + X_sell)
    @ bonds + [n_buy, n_sell] @ actions; an empty day embeds to zero."""
    days = np.asarray(days, dtype=np.float64)
    counts = np.add.reduce(days.reshape(*days.shape[:-1], 2, v), axis=-1)
    return days[..., :v] + days[..., v:], counts


def _windows(days, rows: int, vocab_size: int, what: str = "input") -> np.ndarray:
    """Validate a (..., rows, 2V) stack of day vectors and cast it to float64."""
    data = np.asarray(days, dtype=np.float64)
    if data.ndim < 2 or data.shape[-2:] != (rows, 2 * vocab_size):
        raise ShapeMismatchError(
            f"{what} shape {data.shape} does not end in {(rows, 2 * vocab_size)}"
        )
    return data


class FCModel:
    """Three affine layers with tanh; the head output is tiled over T_out."""

    def __init__(self, config: ModelConfig):
        self.config = config
        width = 2 * config.vocab_size
        in_width = width if config.kind == "FCSum" else config.t_in * width
        b = _Builder(rng_for(config.seed, "init", config.kind))
        b.matrix("fc.w1", in_width, config.hidden)
        b.zeros("fc.b1", config.hidden)
        b.matrix("fc.w2", config.hidden, config.hidden)
        b.zeros("fc.b2", config.hidden)
        b.matrix("fc.w3", config.hidden, width)
        b.zeros("fc.b3", width)
        self.params = Parameters(b.arrays)

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        if cfg.kind == "FCSum":
            x = Tensor(np.add.reduce(data, axis=-2))
        else:
            x = Tensor(data.reshape(*data.shape[:-2], -1))
        p = self.params
        h = ad.tanh(ad.linear(x, p["fc.w1"], p["fc.b1"]))
        h = ad.tanh(ad.linear(h, p["fc.w2"], p["fc.b2"]))
        day = ad.squash(ad.linear(h, p["fc.w3"], p["fc.b3"]))
        return ad.tile_rows(day, cfg.t_out)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(input_days).values


class RecurrentModel:
    """LSTM / BiLSTM over the day vectors, read out from the final state(s).

    A direction holds ``wx`` (2V, 4H), ``wh`` (H, 4H) and ``b`` (4H), gate
    blocks i, f, g, o: the stacked-gate layout of PyTorch's ``nn.LSTM``.
    All T days are projected in one product; the recurrence is one
    ``ad.lstm`` tape entry with a hand-written backward."""

    def __init__(self, config: ModelConfig):
        self.config = config
        width = 2 * config.vocab_size
        hidden = config.hidden
        b = _Builder(rng_for(config.seed, "init", config.kind))
        directions = ("fwd", "bwd") if config.kind == "BiLSTM" else ("fwd",)
        for direction in directions:
            # gate by gate, the input block then the recurrent one
            wx, wh = zip(*[(b.draw(width, hidden), b.draw(hidden, hidden)) for _ in "ifgo"])
            b.add(f"lstm.{direction}.wx", np.concatenate(wx, axis=1))
            b.add(f"lstm.{direction}.wh", np.concatenate(wh, axis=1))
            b.zeros(f"lstm.{direction}.b", 4 * hidden)
        readout_width = hidden * len(directions)
        b.matrix("readout.w", readout_width, width)
        b.zeros("readout.b", width)
        self.params = Parameters(b.arrays)

    def _run_direction(self, data: np.ndarray, direction: str) -> Tensor:
        """Step over axis -2 of (..., T, 2V) inputs; returns the final (..., H) state."""
        p = self.params
        projected = ad.linear(Tensor(data), p[f"lstm.{direction}.wx"], p[f"lstm.{direction}.b"])
        return ad.lstm(projected, p[f"lstm.{direction}.wh"])

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        h = self._run_direction(data, "fwd")
        if cfg.kind == "BiLSTM":
            h = ad.concat_cols([h, self._run_direction(data[..., ::-1, :], "bwd")])
        p = self.params
        day = ad.squash(ad.linear(h, p["readout.w"], p["readout.b"]))
        return ad.tile_rows(day, cfg.t_out)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(input_days).values


class TransformerModel:
    """Encoder-decoder Transformer with configurable embedding and residuals."""

    def __init__(self, config: ModelConfig):
        if config.kind not in _TRANSFORMER_MODES:
            raise ConfigurationError(f"{config.kind!r} is not a transformer kind")
        self.config = config
        self.embed_mode, self.residual_mode = _TRANSFORMER_MODES[config.kind]
        self.params = p = self._build()
        self._embedding = ((p["embed.w"], p["embed.b"]) if self.embed_mode == "affine"
                           else (p["cte.bonds"], p["cte.actions"]))
        self._sos, self._readout = p["decoder.sos"], (p["head.w"], p["head.b"])
        n = range(config.n_layers)
        self._encoder = [self._layer(f"encoder.l{i}", ("attn",)) for i in n]
        self._decoder = [self._layer(f"decoder.l{i}", ("self", "cross")) for i in n]

    def _build(self) -> Parameters:
        cfg = self.config
        d, width = cfg.d_model, 2 * cfg.vocab_size
        b = _Builder(rng_for(cfg.seed, "init", cfg.kind))
        if self.embed_mode == "affine":
            b.matrix("embed.w", width, d)
            b.zeros("embed.b", d)
        else:
            b.table("cte.bonds", cfg.vocab_size, d)
            b.table("cte.actions", 2, d)
        b.vector("decoder.sos", d)
        for stack, blocks in (("encoder", ("attn",)), ("decoder", ("self", "cross"))):
            for i in range(cfg.n_layers):
                layer = f"{stack}.l{i}"
                for block in blocks:
                    for which in "qkvo":
                        b.matrix(f"{layer}.{block}.w{which}", d, d)
                        if which != "k":  # the softmax ignores a key bias
                            b.zeros(f"{layer}.{block}.b{which}", d)
                b.matrix(f"{layer}.ff.w1", d, cfg.d_ff)
                b.zeros(f"{layer}.ff.b1", cfg.d_ff)
                b.matrix(f"{layer}.ff.w2", cfg.d_ff, d)
                b.zeros(f"{layer}.ff.b2", d)
                # one norm per sublayer (the blocks, then ff), or one gate per layer
                if self.residual_mode == "norm":
                    for j in range(1, len(blocks) + 2):
                        b.ones(f"{layer}.norm{j}.gamma", d)
                        b.zeros(f"{layer}.norm{j}.beta", d)
                else:
                    b.zeros(f"{layer}.gate", () if self.residual_mode == "scalar" else d)
        b.matrix("head.w", d, width)
        b.zeros("head.b", width)
        return Parameters(b.arrays)

    def _layer(self, name: str, blocks: tuple[str, ...]) -> tuple:
        """Layer ``name``'s table: (attention blocks, feed-forward, residual rules)."""
        p = self.params
        attention = tuple({w: p[f"{name}.{block}.{w}"] for w in "wq bq wk wv bv wo bo".split()}
                          for block in blocks)
        ff = tuple(p[f"{name}.ff.{w}"] for w in ("w1", "b1", "w2", "b2"))
        if self.residual_mode != "norm":
            return attention, ff, ((p[f"{name}.gate"],),) * (len(blocks) + 1)
        return attention, ff, tuple((p[f"{name}.norm{j}.gamma"], p[f"{name}.norm{j}.beta"])
                                    for j in range(1, len(blocks) + 2))

    # ---- forward pieces -------------------------------------------------

    def embed_days(self, days: np.ndarray) -> Tensor:
        """Shared input embedding of (..., 2V) encoder and decoder day vectors."""
        if self.embed_mode == "affine":
            data = np.asarray(days, dtype=np.float64)
            return ad.linear(Tensor(data), *self._embedding)
        traded, counts = _cte_inputs(days, self.config.vocab_size)
        return ad.project_pair(traded, self._embedding[0], counts, self._embedding[1])

    def _add_positions(self, x: Tensor) -> Tensor:
        """Add the sinusoidal encoding of each position along axis -2 to every window of x."""
        pe = positional_encoding(x.shape[-2], self.config.d_model)
        return ad.add(x, Tensor(pe[None].repeat(math.prod(x.shape[:-2]), axis=0).reshape(x.shape)))

    def _residual(self, x: Tensor, fx: Tensor, rule: tuple) -> Tensor:
        """Combine a sublayer output with its input under the residual scheme.

        norm: layer_norm(x + fx) with the sublayer's own rule (gamma, beta)
        gate: x + gate ⊙ fx with the layer's rule (gate,), zero at init: one
              value (scalar) or one per channel (vector)
        """
        if self.residual_mode == "norm":
            return ad.residual_norm(x, fx, *rule)
        return ad.residual_gate(x, fx, *rule)

    def encode(self, input_days: np.ndarray, trace: list | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        x = self._add_positions(self.embed_days(data))
        for i, ((attn,), ff, (r1, r2)) in enumerate(self._encoder):
            x = self._residual(x, ad.multi_head_attention(x, x, x, heads=cfg.heads, **attn), r1)
            x = self._residual(x, ad.feed_forward(x, *ff), r2)
            if trace is not None:
                trace.append((f"enc{i}", x.values.copy()))
        return x

    def _decode(self, decoder_input: Tensor, memory: Tensor, trace: list | None = None) -> Tensor:
        """Decode every position of ``decoder_input`` against the encoder memory."""
        attention = functools.partial(ad.multi_head_attention, heads=self.config.heads)
        y = decoder_input
        for i, ((own, cross), ff, (r1, r2, r3)) in enumerate(self._decoder):
            y = self._residual(y, attention(y, y, y, causal=True, **own), r1)
            y = self._residual(y, attention(y, memory, memory, **cross), r2)
            y = self._residual(y, ad.feed_forward(y, *ff), r3)
            if trace is not None:
                trace.append((f"dec{i}", y.values.copy()))
        return y

    def _decoder_input(self, previous_days: np.ndarray) -> Tensor:
        """Stack the learned start vector with embeddings of the (..., n, 2V)
        ``previous_days``, n >= 0, at positions 0 to n; the start vector is
        broadcast over their leading axes.
        """
        lead = previous_days.shape[:-2]
        d = self.config.d_model
        sos = ad.tile_rows(self._sos, math.prod(lead))
        rows = ad.reshape(sos, (*lead, 1, d))
        if previous_days.shape[-2]:
            rows = ad.concat_rows([rows, self.embed_days(previous_days)])
        return self._add_positions(rows)

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
        teacher = _windows(teacher, cfg.t_out, cfg.vocab_size, "teacher")
        if teacher.shape[:-2] != np.shape(input_days)[:-2]:
            raise ShapeMismatchError(
                f"teacher shape {teacher.shape} does not match input shape {np.shape(input_days)}"
            )
        memory = self.encode(input_days, trace=trace)
        y = self._decode(self._decoder_input(teacher[..., :-1, :]), memory, trace=trace)
        return ad.squash(ad.linear(y, *self._readout))

    # ---- inference on plain arrays --------------------------------------

    def _embed_values(self, days: np.ndarray, weights: list) -> np.ndarray:
        """:meth:`embed_days` on arrays, with the embedding's ``weights`` values."""
        if self.embed_mode == "affine":
            return ad._linear(days, *weights)
        traded, counts = _cte_inputs(days, self.config.vocab_size)
        return ad._project_pair(traded, weights[0], counts, weights[1])

    def _residual_values(self, x: np.ndarray, fx: np.ndarray, rule: list) -> np.ndarray:
        """:meth:`_residual` on arrays, with the rule's values."""
        if self.residual_mode == "norm":
            return ad._layer_norm("residual_norm", x + fx, *rule)[0]
        return ad._gate(x, fx, *rule)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        """Autoregressive inference, feeding back thresholded predictions.

        All windows of a (..., T_in, 2V) stack advance in lockstep, on plain
        arrays through the ops' forward helpers, recording nothing.  The
        memory's keys and values are projected once; a step decodes only the
        newest position, whose one query row sees every cached one unmasked."""
        cfg = self.config
        d, heads = cfg.d_model, cfg.heads
        embed = functools.partial(self._embed_values, weights=[t.values for t in self._embedding])
        residual = self._residual_values
        x = embed(_windows(input_days, cfg.t_in, cfg.vocab_size)) + positional_encoding(cfg.t_in, d)
        for (attn,), ff, (r1, r2) in map(_layer_values, self._encoder):
            qh, kh, vh = _fused_heads(x, *_fuse_qkv(attn), heads)
            x = residual(x, _attend_projected(qh, kh, vh, attn), r1)
            x = residual(x, ad._feed_forward(x, *ff)[1], r2)
        lead = x.shape[:-2]
        decoder = [_layer_values(layer) for layer in self._decoder]
        fused = [_fuse_qkv(own) for (own, _), _, _ in decoder]
        # per decoder layer: the memory's keys and values, then those decoded so far
        caches = [[ad._split_heads(ad._project(x, cross["wk"]), heads, keys=True),
                   ad._split_heads(ad._linear(x, cross["wv"], cross["bv"]), heads),
                   np.zeros((*lead, heads, d // heads, 0)), np.zeros((*lead, heads, 0, d // heads))]
                  for (_, cross), _, _ in decoder]
        del x  # decoding does not read it: free it before the caches grow
        readout = [t.values for t in self._readout]
        pe = positional_encoding(cfg.t_out, d)
        y = (self._sos.values + pe[:1]).repeat(math.prod(lead), axis=0).reshape(*lead, 1, d)
        rows = []
        for step in range(1, cfg.t_out + 1):
            for ((own, cross), ff, (r1, r2, r3)), qkv, cache in zip(decoder, fused, caches):
                qh, kh, vh = _fused_heads(y, *qkv, heads)
                cache[2] = np.concatenate([cache[2], kh], axis=-1)
                cache[3] = np.concatenate([cache[3], vh], axis=-2)
                y = residual(y, _attend_projected(qh, cache[2], cache[3], own), r1)
                qh = ad._split_heads(ad._linear(y, cross["wq"], cross["bq"]), heads)
                y = residual(y, _attend_projected(qh, cache[0], cache[1], cross), r2)
                y = residual(y, ad._feed_forward(y, *ff)[1], r3)
            rows.append(ad._squash(ad._linear(y, *readout))[1])
            if step < cfg.t_out:
                y = embed((rows[-1] >= FEEDBACK_THRESHOLD).astype(np.float64)) + pe[step:step + 1]
        return np.concatenate(rows, axis=-2)


def _layer_values(layer: tuple) -> tuple:
    """A layer table with each tensor replaced by its values, views of
    ``params.flat``: read once per ``predict`` call, never kept across calls."""
    attention, ff, rules = layer
    return ([{w: t.values for w, t in block.items()} for block in attention],
            [t.values for t in ff], [[t.values for t in rule] for rule in rules])


def _fuse_qkv(block: dict) -> tuple:
    """A self-attention block's (wq|wk|wv, bq, bv) with one (d, 3d) weight,
    concatenated anew per ``predict`` call: a copy would go stale."""
    return (np.concatenate([block["wq"], block["wk"], block["wv"]], axis=1),
            block["bq"], block["bv"])


def _fused_heads(x: np.ndarray, wqkv: np.ndarray, bq: np.ndarray, bv: np.ndarray, heads: int):
    """Head-split queries, keys and values of rows x from one product by wq|wk|wv."""
    d = x.shape[-1]
    qkv = ad._project(x, wqkv)
    return (ad._split_heads(qkv[..., :d] + bq, heads),
            ad._split_heads(qkv[..., d:2 * d], heads, keys=True),
            ad._split_heads(qkv[..., 2 * d:] + bv, heads))


def _attend_projected(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, block: dict):
    """Unmasked attention of head-split queries, merged and output-projected
    by the block's wo and bo."""
    return ad._linear(ad._attend(qh, kh, vh, False)[1], block["wo"], block["bo"])


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
CHECKPOINT_VERSION = 4
MANIFEST_LIMIT = 1 << 16  # bytes read for the manifest line, newline included


def save_checkpoint(path, model) -> None:
    """Manifest line (magic, version and the model config) + the model's
    packed parameter vector as little-endian f64."""
    header = {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
              "config": asdict(model.config)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.params.flat.astype("<f8").tobytes())


@functools.cache
def _parameter_count(config: ModelConfig) -> int:
    """Length of ``config``'s parameter vector, built once per config."""
    return build_model(config).params.flat.size


def check_checkpoint(path, config: ModelConfig) -> np.ndarray:
    """Check a :func:`save_checkpoint` file against the model ``config``
    it must have been trained under; return its parameter vector.

    Raises ArtifactError, in this order, unless the manifest line ends
    within its first ``MANIFEST_LIMIT`` bytes, parses and carries the
    magic, this format version and a model config with exactly
    ``config``'s fields; unless those fields equal ``config``'s (the
    message names the first that differs); unless the payload holds
    exactly ``config``'s parameter count; and unless every parameter
    value is finite.  The payload is measured before it is read, so a
    manifest cannot size what is read.
    """
    with open(path, "rb") as fh:
        header = fh.readline(MANIFEST_LIMIT)
        payload_bytes = fh.seek(0, os.SEEK_END) - len(header)
    if not header.endswith(b"\n"):
        raise ArtifactError(f"{path}: truncated manifest line")
    given = asdict(config)
    try:
        manifest = json.loads(header.decode("utf-8"))
        if manifest["magic"] != CHECKPOINT_MAGIC:
            raise ValueError(f"magic {manifest['magic']!r}, expected {CHECKPOINT_MAGIC!r}")
        if manifest["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"version {manifest['version']!r}, expected {CHECKPOINT_VERSION}")
        stored = manifest["config"]
        if not isinstance(stored, dict) or stored.keys() != given.keys():
            raise ValueError(f"model config {stored}, expected the fields {', '.join(given)}")
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: malformed manifest ({exc})") from exc
    for name, value in given.items():
        if stored[name] != value:
            raise ArtifactError(f"{path}: trained with {name} = {stored[name]!r}, "
                                f"the config gives {value!r}")
    expected = 8 * _parameter_count(config)
    if payload_bytes < expected:
        raise ArtifactError(f"{path}: truncated payload: {payload_bytes} of {expected} bytes")
    if payload_bytes > expected:
        raise ArtifactError(f"{path}: {payload_bytes - expected} trailing payload bytes")
    values = np.fromfile(path, dtype="<f8", offset=len(header))
    if not np.isfinite(values).all():
        raise ArtifactError(f"{path}: non-finite parameter value in the payload")
    return values


def load_checkpoint(path, config: ModelConfig):
    """Load a checkpoint :func:`check_checkpoint` passes under ``config``;
    the model is built after the check, so a manifest cannot size it."""
    values = check_checkpoint(path, config)
    model = build_model(config)
    model.params.flat[:] = values
    return model
