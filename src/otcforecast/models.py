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


def cte_encode(days: np.ndarray, bond_table: Tensor, action_table: Tensor) -> Tensor:
    """Co-trading embedding of (..., 2V) day vectors: per day, the sum over
    traded bonds of the bond vector plus the buy or sell action vector.

    Computed as one tape entry of two dense products, (X_buy + X_sell) @
    bonds + [n_buy, n_sell] @ actions, on any leading shape; an empty day
    embeds to zero.
    """
    v = bond_table.shape[0]
    days = np.asarray(days, dtype=np.float64)
    buys, sells = days[..., :v], days[..., v:]
    counts = np.stack([buys.sum(axis=-1), sells.sum(axis=-1)], axis=-1)
    return ad.project_pair(buys + sells, bond_table, counts, action_table)


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
            x = Tensor(data.sum(axis=-2))
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
        self.params = self._build()

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

    # ---- forward pieces -------------------------------------------------

    def embed_days(self, days: np.ndarray) -> Tensor:
        """Shared input embedding of (..., 2V) encoder and decoder day vectors."""
        p = self.params
        if self.embed_mode == "affine":
            data = np.asarray(days, dtype=np.float64)
            return ad.linear(Tensor(data), p["embed.w"], p["embed.b"])
        return cte_encode(days, p["cte.bonds"], p["cte.actions"])

    def _add_positions(self, x: Tensor, start: int = 0) -> Tensor:
        """Add the sinusoidal encodings of positions start, start + 1, ...
        along axis -2 to every window of x."""
        pe = positional_encoding(start + x.shape[-2], self.config.d_model)[start:]
        return ad.add(x, Tensor(np.broadcast_to(pe, x.shape)))

    def _residual(self, x: Tensor, fx: Tensor, layer: str, sublayer: int) -> Tensor:
        """Combine a sublayer output with its input under the residual scheme.

        norm: layer_norm(x + fx) with the sublayer's own affine parameters
        gate: x + gate ⊙ fx with the layer's gate, zero at init: one value
              (scalar) or one per channel (vector)
        """
        p = self.params
        if self.residual_mode == "norm":
            return ad.residual_norm(x, fx, p[f"{layer}.norm{sublayer}.gamma"],
                                    p[f"{layer}.norm{sublayer}.beta"])
        return ad.residual_gate(x, fx, p[f"{layer}.gate"])

    def _attention(self, prefix: str, q: Tensor, kv, causal: bool) -> Tensor:
        """Attention of the rows q over kv: a (..., T_k, d) tensor of keys
        and values, or at inference a :meth:`_project_kv` pair of them."""
        p = self.params
        if isinstance(kv, Tensor):
            return ad.multi_head_attention(
                q, kv, kv,
                wq=p[f"{prefix}.wq"], bq=p[f"{prefix}.bq"],
                wk=p[f"{prefix}.wk"], wv=p[f"{prefix}.wv"], bv=p[f"{prefix}.bv"],
                wo=p[f"{prefix}.wo"], bo=p[f"{prefix}.bo"],
                heads=self.config.heads, causal=causal,
            )
        qh = ad._split_heads(q.values, p[f"{prefix}.wq"].values, p[f"{prefix}.bq"].values,
                             self.config.heads)
        merged = ad._attend(qh, *kv, causal)[1]
        return Tensor(ad._linear(merged, p[f"{prefix}.wo"].values, p[f"{prefix}.bo"].values))

    def _project_kv(self, prefix: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The keys and values of (..., T, d) rows x, projected and head-split."""
        p, heads = self.params, self.config.heads
        return (ad._split_heads(x, p[f"{prefix}.wk"].values, None, heads, keys=True),
                ad._split_heads(x, p[f"{prefix}.wv"].values, p[f"{prefix}.bv"].values, heads))

    def _feed_forward(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        return ad.feed_forward(x, *(p[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2")))

    def encode(self, input_days: np.ndarray, trace: list | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        x = self._add_positions(self.embed_days(data))
        for i in range(cfg.n_layers):
            layer = f"encoder.l{i}"
            x = self._residual(x, self._attention(f"{layer}.attn", x, x, causal=False), layer, 1)
            x = self._residual(x, self._feed_forward(f"{layer}.ff", x), layer, 2)
            if trace is not None:
                trace.append((f"enc{i}", x.values.copy()))
        return x

    def _decode(self, decoder_input: Tensor, memory: Tensor, cache: list | None = None,
                trace: list | None = None) -> Tensor:
        """Decode against the encoder memory.

        At inference ``cache`` holds, per layer, the projected keys and
        values of the positions decoded so far and of the memory (see
        :meth:`predict`), and ``decoder_input`` only the newest positions:
        each layer appends their keys and values to its self-attention
        pair and reads the memory's from the cache, not from ``memory``.
        """
        cfg = self.config
        y = decoder_input
        for i in range(cfg.n_layers):
            layer = f"decoder.l{i}"
            keys, memory_kv = y, memory
            if cache is not None:
                (old_k, old_v), memory_kv = cache[i]
                new_k, new_v = self._project_kv(f"{layer}.self", y.values)
                keys = (np.concatenate([old_k, new_k], axis=-1),
                        np.concatenate([old_v, new_v], axis=-2))
                cache[i] = keys, memory_kv
            y = self._residual(y, self._attention(f"{layer}.self", y, keys, causal=True), layer, 1)
            y = self._residual(y, self._attention(f"{layer}.cross", y, memory_kv, causal=False),
                               layer, 2)
            y = self._residual(y, self._feed_forward(f"{layer}.ff", y), layer, 3)
            if trace is not None:
                trace.append((f"dec{i}", y.values.copy()))
        return y

    def _head(self, y: Tensor) -> Tensor:
        p = self.params
        return ad.squash(ad.linear(y, p["head.w"], p["head.b"]))

    def _decoder_input(self, previous_days: np.ndarray) -> Tensor:
        """Stack the learned start vector with embeddings of the (..., n, 2V)
        ``previous_days``, n >= 0, at positions 0 to n; the start vector is
        broadcast over their leading axes.
        """
        lead = previous_days.shape[:-2]
        d = self.config.d_model
        sos = ad.tile_rows(self.params["decoder.sos"], math.prod(lead))
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
        decoder_input = self._decoder_input(teacher[..., :-1, :])
        return self._head(self._decode(decoder_input, memory, trace=trace))

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        """Autoregressive inference, feeding back thresholded predictions.

        All windows of a (..., T_in, 2V) stack advance in lockstep, and each
        output day is decoded once (incremental decoding): a step embeds
        only the day fed back by the step before, at its position.  Every
        key and value is projected once: each decoder layer's cache holds
        its cross-attention keys and values, projected from the memory
        before the first step, and its self-attention keys and values, to
        which each step appends one position's.
        """
        cfg = self.config
        with ad.no_grad():
            memory = self.encode(input_days)
            lead = memory.shape[:-2]
            y = self._decoder_input(np.zeros((*lead, 0, 2 * cfg.vocab_size)))
            d_k = cfg.d_model // cfg.heads
            none_yet = (np.zeros((*lead, cfg.heads, d_k, 0)), np.zeros((*lead, cfg.heads, 0, d_k)))
            cache = [(none_yet, self._project_kv(f"decoder.l{i}.cross", memory.values))
                     for i in range(cfg.n_layers)]
            rows = []
            for step in range(1, cfg.t_out + 1):
                day = self._head(self._decode(y, memory, cache)).values[..., 0, :]
                rows.append(day)
                if step < cfg.t_out:
                    fed_back = (day >= FEEDBACK_THRESHOLD).astype(np.float64)[..., None, :]
                    y = self._add_positions(self.embed_days(fed_back), step)
        return np.stack(rows, axis=-2)


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
