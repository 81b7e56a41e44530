"""The eight-model zoo: FC baselines, LSTMs, and four Transformer variants.

The Transformer variants differ along two axes.  Input representation:
either an affine projection of the raw 2V multi-hot day vector, or a
co-trading embedding (CTE) that sums one trainable vector per traded bond
plus a buy/sell action vector, shared between encoder and decoder.
Residual scheme: post-norm (LayerNorm), a trainable scalar gate initialized
at zero, or a trainable per-channel gate vector initialized at zero.  One
gate is shared by all sublayers of a layer.

Every model maps a (..., T_in, 2V) stack of input windows to a
(..., T_out, 2V) stack of predictions with entries in [0, 1] (outputs pass
through (tanh + 1) / 2).  The leading axes are a batch: one forward pass
serves a whole mini-batch, and a single (T_in, 2V) window is the case with
no leading axis.  The FC and recurrent baselines predict a single day
vector that is tiled over the output window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArtifactError, ConfigurationError, ContractError, ShapeMismatchError
from .seeding import rng_for

MODEL_KINDS = (
    "FCSum",
    "FCConcat",
    "LSTM",
    "BiLSTM",
    "TransFV",
    "TransCTE",
    "TransRE",
    "TransPPRZ",
)

TRANSFORMER_KINDS = ("TransFV", "TransCTE", "TransRE", "TransPPRZ")

# (input embedding, residual scheme) per transformer kind
_TRANSFORMER_MODES = {
    "TransFV": ("affine", "norm"),
    "TransCTE": ("cte", "norm"),
    "TransRE": ("affine", "scalar"),
    "TransPPRZ": ("cte", "vector"),
}

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
    """Ordered, uniquely named collection of trainable tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def count_values(self) -> int:
        return sum(t.values.size for t in self._tensors.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._tensors) - set(state)
        surplus = set(state) - set(self._tensors)
        if missing or surplus:
            raise ContractError(
                f"parameter name mismatch: missing {sorted(missing)}, surplus {sorted(surplus)}"
            )
        for name, tensor in self._tensors.items():
            values = np.asarray(state[name], dtype=np.float64)
            if values.shape != tensor.values.shape:
                raise ShapeMismatchError(
                    f"parameter {name}: checkpoint shape {values.shape} != {tensor.values.shape}"
                )
            tensor.values[...] = values


class _Builder:
    """Draws parameter initializations in a fixed order from one generator."""

    def __init__(self, params: Parameters, rng: np.random.Generator):
        self.params = params
        self.rng = rng

    def matrix(self, name: str, rows: int, cols: int) -> Tensor:
        bound = 1.0 / math.sqrt(rows)
        return self.params.add(name, self.rng.uniform(-bound, bound, size=(rows, cols)))

    def table(self, name: str, rows: int, cols: int) -> Tensor:
        # lookup tables scale with the embedding width, not the row count
        bound = 1.0 / math.sqrt(cols)
        return self.params.add(name, self.rng.uniform(-bound, bound, size=(rows, cols)))

    def vector(self, name: str, n: int) -> Tensor:
        bound = 1.0 / math.sqrt(n)
        return self.params.add(name, self.rng.uniform(-bound, bound, size=n))

    def zeros(self, name: str, shape=()) -> Tensor:
        return self.params.add(name, np.zeros(shape))

    def ones(self, name: str, n: int) -> Tensor:
        return self.params.add(name, np.ones(n))


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal position matrix: sin on even channels, cos on odd ones."""
    if d_model % 2 != 0:
        raise ConfigurationError(f"positional encoding needs even d_model, got {d_model}")
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(positions * freqs)
    pe[:, 1::2] = np.cos(positions * freqs)
    return pe


def _squash(z: Tensor) -> Tensor:
    """Map activations into [0, 1] via (tanh(z) + 1) / 2."""
    return ad.scale(ad.add_scalar(ad.tanh(z), 1.0), 0.5)


def residual_block(
    x: Tensor,
    fx: Tensor,
    mode: str,
    gate: Tensor | None = None,
    gamma: Tensor | None = None,
    beta: Tensor | None = None,
) -> Tensor:
    """Combine a sublayer output with its input under one residual scheme.

    norm:   layer_norm(x + fx) with the given affine parameters
    scalar: x + gate * fx       (trainable scalar, zero at init)
    vector: x + gate ⊙ fx       (trainable per-channel vector, zero at init)
    """
    if mode == "norm":
        return ad.layer_norm(ad.add(x, fx), gamma, beta)
    if mode == "scalar":
        return ad.add(x, ad.scale_by(fx, gate))
    if mode == "vector":
        return ad.add(x, ad.mul_rowvec(fx, gate))
    raise ConfigurationError(f"unknown residual mode {mode!r}")


def cte_encode(days: np.ndarray, bond_table: Tensor, action_table: Tensor) -> Tensor:
    """Co-trading embedding of (..., 2V) day vectors: per day, the sum over
    traded bonds of the bond vector plus the buy or sell action vector.

    Computed as one dense product, (X_buy + X_sell) @ bonds +
    [n_buy, n_sell] @ actions, on any leading shape; an empty day embeds
    to zero.
    """
    v = bond_table.shape[0]
    days = np.asarray(days, dtype=np.float64)
    buys, sells = days[..., :v], days[..., v:]
    counts = np.stack([buys.sum(axis=-1), sells.sum(axis=-1)], axis=-1)
    return ad.add(
        ad.matmul(Tensor(buys + sells), bond_table),
        ad.matmul(Tensor(counts), action_table),
    )


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
        self.params = Parameters()
        b = _Builder(self.params, rng_for(config.seed, "init", config.kind))
        b.matrix("fc.w1", in_width, config.hidden)
        b.zeros("fc.b1", config.hidden)
        b.matrix("fc.w2", config.hidden, config.hidden)
        b.zeros("fc.b2", config.hidden)
        b.matrix("fc.w3", config.hidden, width)
        b.zeros("fc.b3", width)

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        if cfg.kind == "FCSum":
            x = Tensor(data.sum(axis=-2))
        else:
            x = Tensor(data.reshape(*data.shape[:-2], -1))
        p = self.params
        h = ad.tanh(ad.add_rowvec(ad.matmul(x, p["fc.w1"]), p["fc.b1"]))
        h = ad.tanh(ad.add_rowvec(ad.matmul(h, p["fc.w2"]), p["fc.b2"]))
        day = _squash(ad.add_rowvec(ad.matmul(h, p["fc.w3"]), p["fc.b3"]))
        return ad.tile_rows(day, cfg.t_out)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(input_days).values


class RecurrentModel:
    """LSTM / BiLSTM over the day vectors, read out from the final state(s)."""

    _GATES = ("i", "f", "g", "o")

    def __init__(self, config: ModelConfig):
        self.config = config
        width = 2 * config.vocab_size
        hidden = config.hidden
        self.params = Parameters()
        b = _Builder(self.params, rng_for(config.seed, "init", config.kind))
        directions = ("fwd", "bwd") if config.kind == "BiLSTM" else ("fwd",)
        for direction in directions:
            for gate in self._GATES:
                b.matrix(f"lstm.{direction}.wx_{gate}", width, hidden)
                b.matrix(f"lstm.{direction}.wh_{gate}", hidden, hidden)
                b.zeros(f"lstm.{direction}.b_{gate}", hidden)
        readout_width = hidden * len(directions)
        b.matrix("readout.w", readout_width, width)
        b.zeros("readout.b", width)

    def _run_direction(self, data: np.ndarray, direction: str) -> Tensor:
        """Step over axis -2 of (..., T, 2V) inputs; returns the final (..., H) state."""
        p = self.params
        state_shape = (*data.shape[:-2], self.config.hidden)
        h = Tensor(np.zeros(state_shape))
        c = Tensor(np.zeros(state_shape))
        for step in range(data.shape[-2]):
            x_t = Tensor(data[..., step, :])
            pre = {}
            for gate in self._GATES:
                pre[gate] = ad.add_rowvec(
                    ad.add(
                        ad.matmul(x_t, p[f"lstm.{direction}.wx_{gate}"]),
                        ad.matmul(h, p[f"lstm.{direction}.wh_{gate}"]),
                    ),
                    p[f"lstm.{direction}.b_{gate}"],
                )
            i = ad.sigmoid(pre["i"])
            f = ad.sigmoid(pre["f"])
            g = ad.tanh(pre["g"])
            o = ad.sigmoid(pre["o"])
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        return h

    def forward(self, input_days: np.ndarray, teacher: np.ndarray | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        h = self._run_direction(data, "fwd")
        if cfg.kind == "BiLSTM":
            h = ad.concat_cols([h, self._run_direction(data[..., ::-1, :], "bwd")])
        p = self.params
        day = _squash(ad.add_rowvec(ad.matmul(h, p["readout.w"]), p["readout.b"]))
        return ad.tile_rows(day, cfg.t_out)

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.forward(input_days).values


class TransformerModel:
    """Encoder-decoder Transformer with configurable embedding and residuals."""

    def __init__(self, config: ModelConfig, embed_mode: str | None = None, residual_mode: str | None = None):
        if embed_mode is None or residual_mode is None:
            if config.kind not in _TRANSFORMER_MODES:
                raise ConfigurationError(f"{config.kind!r} is not a transformer kind")
            embed_mode, residual_mode = _TRANSFORMER_MODES[config.kind]
        self.config = config
        self.embed_mode = embed_mode
        self.residual_mode = residual_mode
        self.params = Parameters()
        self._build()

    def _build(self):
        cfg = self.config
        d, width = cfg.d_model, 2 * cfg.vocab_size
        b = _Builder(self.params, rng_for(cfg.seed, "init", cfg.kind))
        if self.embed_mode == "affine":
            b.matrix("embed.w", width, d)
            b.zeros("embed.b", d)
        else:
            b.table("cte.bonds", cfg.vocab_size, d)
            b.table("cte.actions", 2, d)
        b.vector("decoder.sos", d)
        for i in range(cfg.n_layers):
            self._build_attention(b, f"encoder.l{i}.attn")
            self._build_ff(b, f"encoder.l{i}.ff")
            self._build_residual(b, f"encoder.l{i}", sublayers=2)
        for i in range(cfg.n_layers):
            self._build_attention(b, f"decoder.l{i}.self")
            self._build_attention(b, f"decoder.l{i}.cross")
            self._build_ff(b, f"decoder.l{i}.ff")
            self._build_residual(b, f"decoder.l{i}", sublayers=3)
        b.matrix("head.w", d, width)
        b.zeros("head.b", width)

    def _build_attention(self, b: _Builder, prefix: str):
        d = self.config.d_model
        for which in "qkvo":
            b.matrix(f"{prefix}.w{which}", d, d)
            b.zeros(f"{prefix}.b{which}", d)

    def _build_ff(self, b: _Builder, prefix: str):
        d, d_ff = self.config.d_model, self.config.d_ff
        b.matrix(f"{prefix}.w1", d, d_ff)
        b.zeros(f"{prefix}.b1", d_ff)
        b.matrix(f"{prefix}.w2", d_ff, d)
        b.zeros(f"{prefix}.b2", d)

    def _build_residual(self, b: _Builder, prefix: str, sublayers: int):
        d = self.config.d_model
        if self.residual_mode == "norm":
            for j in range(1, sublayers + 1):
                b.ones(f"{prefix}.norm{j}.gamma", d)
                b.zeros(f"{prefix}.norm{j}.beta", d)
        elif self.residual_mode == "scalar":
            b.zeros(f"{prefix}.gate")
        else:
            b.zeros(f"{prefix}.gate", d)

    # ---- forward pieces -------------------------------------------------

    def embed_days(self, days: np.ndarray) -> Tensor:
        """Shared input embedding of (..., 2V) encoder and decoder day vectors."""
        p = self.params
        if self.embed_mode == "affine":
            data = np.asarray(days, dtype=np.float64)
            return ad.add_rowvec(ad.matmul(Tensor(data), p["embed.w"]), p["embed.b"])
        return cte_encode(days, p["cte.bonds"], p["cte.actions"])

    def _add_positions(self, x: Tensor) -> Tensor:
        """Add the sinusoidal encoding of axis -2 to every window of x."""
        pe = positional_encoding(x.shape[-2], self.config.d_model)
        return ad.add(x, Tensor(np.broadcast_to(pe, x.shape)))

    def _residual(self, x: Tensor, fx: Tensor, layer_prefix: str, sublayer: int) -> Tensor:
        p = self.params
        if self.residual_mode == "norm":
            return residual_block(
                x, fx, "norm",
                gamma=p[f"{layer_prefix}.norm{sublayer}.gamma"],
                beta=p[f"{layer_prefix}.norm{sublayer}.beta"],
            )
        return residual_block(x, fx, self.residual_mode, gate=p[f"{layer_prefix}.gate"])

    def _attention(self, prefix: str, q: Tensor, k: Tensor, v: Tensor, causal: bool) -> Tensor:
        p = self.params
        return ad.multi_head_attention(
            q, k, v,
            wq=p[f"{prefix}.wq"], bq=p[f"{prefix}.bq"],
            wk=p[f"{prefix}.wk"], bk=p[f"{prefix}.bk"],
            wv=p[f"{prefix}.wv"], bv=p[f"{prefix}.bv"],
            wo=p[f"{prefix}.wo"], bo=p[f"{prefix}.bo"],
            heads=self.config.heads, causal=causal,
        )

    def _feed_forward(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        h = ad.tanh(ad.add_rowvec(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return ad.add_rowvec(ad.matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def encode(self, input_days: np.ndarray, trace: list | None = None) -> Tensor:
        cfg = self.config
        data = _windows(input_days, cfg.t_in, cfg.vocab_size)
        x = self._add_positions(self.embed_days(data))
        for i in range(cfg.n_layers):
            layer = f"encoder.l{i}"
            x = self._residual(x, self._attention(f"{layer}.attn", x, x, x, causal=False), layer, 1)
            x = self._residual(x, self._feed_forward(f"{layer}.ff", x), layer, 2)
            if trace is not None:
                trace.append((f"enc{i}", x.values.copy()))
        return x

    def _decode(self, decoder_input: Tensor, memory: Tensor, trace: list | None = None) -> Tensor:
        cfg = self.config
        y = decoder_input
        for i in range(cfg.n_layers):
            layer = f"decoder.l{i}"
            y = self._residual(y, self._attention(f"{layer}.self", y, y, y, causal=True), layer, 1)
            y = self._residual(y, self._attention(f"{layer}.cross", y, memory, memory, causal=False), layer, 2)
            y = self._residual(y, self._feed_forward(f"{layer}.ff", y), layer, 3)
            if trace is not None:
                trace.append((f"dec{i}", y.values.copy()))
        return y

    def _head(self, y: Tensor) -> Tensor:
        p = self.params
        return _squash(ad.add_rowvec(ad.matmul(y, p["head.w"]), p["head.b"]))

    def _decoder_input(self, previous_days: np.ndarray, steps: int) -> Tensor:
        """Stack the learned start vector with embeddings of earlier days.

        ``previous_days`` is (..., T_out, 2V); the start vector is broadcast
        over its leading axes.
        """
        lead = previous_days.shape[:-2]
        d = self.config.d_model
        sos = ad.tile_rows(self.params["decoder.sos"], math.prod(lead))
        rows = ad.reshape(sos, (*lead, 1, d))
        if steps > 1:
            rows = ad.concat_rows([rows, self.embed_days(previous_days[..., : steps - 1, :])])
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
        decoder_input = self._decoder_input(teacher, cfg.t_out)
        return self._head(self._decode(decoder_input, memory, trace=trace))

    def predict(self, input_days: np.ndarray) -> np.ndarray:
        """Autoregressive inference, feeding back thresholded predictions.

        All windows of a (..., T_in, 2V) stack advance in lockstep, one
        output day per decoder pass.
        """
        cfg = self.config
        with ad.no_grad():
            memory = self.encode(input_days)
            lead = memory.shape[:-2]
            fed_back = np.zeros((*lead, cfg.t_out, 2 * cfg.vocab_size))
            rows = []
            for step in range(1, cfg.t_out + 1):
                decoder_input = self._decoder_input(fed_back, step)
                out = self._head(self._decode(decoder_input, memory))
                day = out.values[..., -1, :]
                rows.append(day)
                if step < cfg.t_out:
                    fed_back[..., step - 1, :] = (day >= FEEDBACK_THRESHOLD).astype(np.float64)
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


def save_checkpoint(path, params: Parameters) -> None:
    """Manifest line (name, shape, byte offset) + packed little-endian f64."""
    manifest = []
    offset = 0
    blobs = []
    for name, tensor in params.items():
        blob = np.ascontiguousarray(tensor.values, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(tensor.values.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    with open(path, "wb") as fh:
        fh.write(json.dumps({"entries": manifest}, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ArtifactError unless the manifest line parses and its entries
    tile the payload exactly: in order, from offset 0, with no bytes
    missing or left over.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    if not header.endswith(b"\n"):
        raise ArtifactError(f"{path}: truncated manifest line")
    try:
        layout = [
            (str(entry["name"]), tuple(int(n) for n in entry["shape"]), int(entry["offset"]))
            for entry in json.loads(header.decode("utf-8"))["entries"]
        ]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: malformed manifest ({exc})") from exc
    state = {}
    end = 0
    for name, shape, offset in layout:
        if offset != end or any(n < 0 for n in shape):
            raise ArtifactError(f"{path}: entry {name!r} has shape {shape} at offset {offset}, "
                                f"expected offset {end}")
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(payload):
            raise ArtifactError(f"{path}: truncated payload: entry {name!r} ends at byte {end}, "
                                f"payload has {len(payload)}")
        values = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        state[name] = values.astype(np.float64)
    if end != len(payload):
        raise ArtifactError(f"{path}: {len(payload) - end} trailing payload bytes")
    return state
