"""Synthetic OTC transaction records and their reduction to training samples.

The generator emits TRACE-shaped records for three dealer archetypes:
periodic dealers re-trade a fixed bond set every p days, sparse dealers
trade rarely and erratically, dense dealers trade heavily over a wide set.
Each archetype first draws a dealer's plan, then walks its trades' days,
bonds and sides; the generator draws each trade's counterparty (a fair coin)
and whether a cancellation follows.  Cleaning drops cancellations with the
records they void, then keeps the most active dealers and bonds.  Histories
are daily multi-hot vectors of length 2V: buys in [0, V), sells in [V, 2V).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ArtifactError, ContractError, ShapeMismatchError
from .seeding import rng_for

BUY = "B"
SELL = "S"
STATUS_NORMAL = "N"
STATUS_CANCEL = "X"
BOND_ID = "B{:04d}"  # the bond_id of the generator's bond index

_HEADER = struct.Struct("<4sIII")
_MAGIC = b"OTCF"
_FORMAT_VERSION = 1
# the largest mean numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class TradeRecord(NamedTuple):
    """One reported transaction from the reporting dealer's perspective; its
    fields, in order, are the columns of ``records.csv``."""

    day_index: int
    dealer_id: str
    bond_id: str
    side: str  # B | S
    counterparty: str  # D (dealer) | C (client)
    status: str = STATUS_NORMAL  # N | X (cancellation)
    ref_record: int | None = None  # list position of the earlier record an X voids


@dataclass(frozen=True)
class MarketSpec:
    """Shape of the synthetic market; defaults are a scaled-down trading desk."""

    days: int = 249
    bonds: int = 500
    periodic_dealers: int = 80
    sparse_dealers: int = 80
    dense_dealers: int = 40
    periodic_period_range: tuple[int, int] = (2, 7)
    periodic_bonds_range: tuple[int, int] = (2, 6)
    periodic_buy_prob: float = 0.6
    sparse_rate: float = 0.1
    dense_rate: float = 8.0
    dense_bonds_range: tuple[int, int] = (50, 150)
    cancellation_rate: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name, floor in (("days", 1), ("bonds", 0), ("periodic_dealers", 0),
                            ("sparse_dealers", 0), ("dense_dealers", 0)):
            if getattr(self, name) < floor:
                raise ContractError(f"{name} {getattr(self, name)} must be >= {floor}")
        for name in ("periodic_buy_prob", "sparse_rate", "cancellation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractError(f"{name} {getattr(self, name)} outside [0, 1]")
        if not 0 <= self.dense_rate <= _POISSON_MAX:
            raise ContractError(f"dense_rate {self.dense_rate} must be nonnegative and at most "
                                f"numpy's Poisson limit {_POISSON_MAX!r}")
        for name, floor in (("periodic_period_range", 1), ("periodic_bonds_range", 0),
                            ("dense_bonds_range", 0)):
            lo, hi = getattr(self, name)
            if not floor <= lo <= hi:
                raise ContractError(f"{name} ({lo}, {hi}) needs {floor} <= minimum <= maximum")


@dataclass
class Vocabulary:
    """Bijective mapping between retained bond ids and [0, V)."""

    bonds: list[str]
    index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.bonds)


@dataclass
class DealerHistory:
    """Per-dealer calendar of daily multi-hot action vectors (D x 2V, uint8)."""

    dealer_id: str
    day_vectors: np.ndarray


@dataclass
class Sample:
    """An input window paired with the target days that follow it."""

    dealer_id: str
    start_day: int
    input_days: np.ndarray  # T_in x 2V
    target_days: np.ndarray  # T_out x 2V


def _dealer_ids(spec: MarketSpec) -> list[tuple[str, str]]:
    kinds = (
        ["periodic"] * spec.periodic_dealers
        + ["sparse"] * spec.sparse_dealers
        + ["dense"] * spec.dense_dealers
    )
    return [(f"D{i:04d}", kind) for i, kind in enumerate(kinds)]


class Plan(NamedTuple):
    """What a dealer's archetype fixes before its first trade; None where it has no such value."""

    dealer_id: str
    archetype: str  # periodic | sparse | dense
    period: int | None = None  # periodic: days between trading days
    basket: tuple[tuple[int, str], ...] | None = None  # periodic: (bond, side), ascending bond
    universe: tuple[int, ...] | None = None  # dense: the bonds it trades, in drawn order


def _periodic_plan(spec, rng):
    lo, hi = spec.periodic_period_range
    period = int(rng.integers(lo, hi + 1))
    blo, bhi = spec.periodic_bonds_range
    n_bonds = min(int(rng.integers(blo, bhi + 1)), spec.bonds)
    chosen = sorted(rng.choice(spec.bonds, size=n_bonds, replace=False).tolist())
    return {"period": period, "basket": tuple(
        (b, BUY if rng.random() < spec.periodic_buy_prob else SELL) for b in chosen)}


def _periodic_trades(spec, plan, rng):
    for day in range(0, spec.days, plan.period):
        yield from ((day, b, side) for b, side in plan.basket)


def _sparse_trades(spec, plan, rng):
    for day in range(spec.days):
        if rng.random() < spec.sparse_rate and spec.bonds > 0:
            yield day, int(rng.integers(spec.bonds)), BUY if rng.random() < 0.5 else SELL


def _dense_plan(spec, rng):
    lo, hi = spec.dense_bonds_range
    width = min(int(rng.integers(lo, hi + 1)), spec.bonds)
    return {"universe": tuple(rng.choice(spec.bonds, size=width, replace=False).tolist())}


def _dense_trades(spec, plan, rng):
    for day in range(spec.days if plan.universe else 0):
        for _ in range(int(rng.poisson(spec.dense_rate))):
            bond = plan.universe[int(rng.integers(len(plan.universe)))]
            yield day, bond, BUY if rng.random() < 0.5 else SELL


_ARCHETYPES = {
    "periodic": (_periodic_plan, _periodic_trades),
    "sparse": (lambda spec, rng: {}, _sparse_trades),
    "dense": (_dense_plan, _dense_trades),
}


def _planned_streams(spec: MarketSpec):
    """Each dealer's plan and its stream, advanced past the plan's draws."""
    for dealer_id, kind in _dealer_ids(spec):
        rng = rng_for(spec.seed, "dealer", dealer_id)
        yield Plan(dealer_id, kind, **_ARCHETYPES[kind][0](spec, rng)), rng


def dealer_plans(spec: MarketSpec) -> list[Plan]:
    """Every dealer's plan in generator order, drawn from the head of its stream alone."""
    return [plan for plan, _ in _planned_streams(spec)]


def generate_synthetic_market(spec: MarketSpec) -> list[TradeRecord]:
    """Emit the full record list for a market spec, deterministic under seed.

    Per trade, the archetype's walk of the dealer's plan draws the day, bond
    and side from the dealer's stream; then this loop draws the counterparty
    and, when ``cancellation_rate > 0``, whether a cancellation follows.
    Records are ordered dealer-major, day-minor; a cancellation immediately
    follows the record it voids and references it by list position.
    """
    bond_ids = [BOND_ID.format(b) for b in range(spec.bonds)]
    out: list[TradeRecord] = []
    for plan, rng in _planned_streams(spec):
        for day, bond, side in _ARCHETYPES[plan.archetype][1](spec, plan, rng):
            out.append(TradeRecord(day, plan.dealer_id, bond_ids[bond], side,
                                   "D" if rng.random() < 0.5 else "C"))
            if spec.cancellation_rate > 0 and rng.random() < spec.cancellation_rate:
                out.append(out[-1]._replace(status=STATUS_CANCEL, ref_record=len(out) - 1))
    return out


def _drop_cancelled(records: list[TradeRecord]) -> list[TradeRecord]:
    """Keep the N records in order, less each one an X record names; an X
    naming no earlier record, or any other status, raises ContractError."""
    voided: set[int] = set()
    for i, record in enumerate(records):
        if record.status == STATUS_NORMAL:
            continue
        ref = record.ref_record
        if record.status != STATUS_CANCEL or ref is None or not 0 <= ref < i:
            raise ContractError(f"record {i}: status {record.status!r}, ref_record {ref!r}: a "
                                "record is N, or an X naming an earlier record's position")
        voided.update((i, ref))
    return [r for i, r in enumerate(records) if i not in voided]


def _top_keys(counts: dict[str, int], keep: int) -> set[str]:
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    return set(ranked[:keep])


def apply_trade_filters(
    records: list[TradeRecord],
    top_dealers: int,
    top_bonds: int,
    drop_top_bonds: bool = False,
) -> tuple[list[TradeRecord], set[str], set[str]]:
    """Drop cancellations with the records they void, then keep only the
    most active dealers and bonds.

    Ranking is by surviving record count, ties broken by ascending id.  With
    ``drop_top_bonds`` the ``top_bonds`` most active bonds are removed
    instead of retained (the inverted reading of bond filtering).
    """
    resolved = _drop_cancelled(records)

    dealer_counts = Counter(r.dealer_id for r in resolved)
    kept_dealers = _top_keys(dealer_counts, top_dealers)
    resolved = [r for r in resolved if r.dealer_id in kept_dealers]

    bond_counts = Counter(r.bond_id for r in resolved)
    ranked_bonds = _top_keys(bond_counts, top_bonds)
    if drop_top_bonds:
        kept_bonds = set(bond_counts) - ranked_bonds
    else:
        kept_bonds = ranked_bonds
    resolved = [r for r in resolved if r.bond_id in kept_bonds]

    return resolved, set(kept_dealers), set(kept_bonds)


def build_vocabulary(records: list[TradeRecord]) -> Vocabulary:
    """Assign contiguous indices to the bonds present, in ascending id order."""
    bonds = sorted({r.bond_id for r in records})
    return Vocabulary(bonds=bonds, index={b: i for i, b in enumerate(bonds)})


def build_histories(
    records: list[TradeRecord], vocab: Vocabulary, days: int
) -> list[DealerHistory]:
    """Collapse records into per-dealer daily multi-hot matrices.

    Multiplicity within a (dealer, day, bond, side) cell collapses to 1.
    Histories come back in ascending dealer id order, one per dealer
    present in the records.
    """
    v = vocab.size
    matrices: dict[str, np.ndarray] = {}
    for r in records:
        if r.bond_id not in vocab.index:
            raise IndexError(f"bond {r.bond_id!r} not in vocabulary")
        if not 0 <= r.day_index < days:
            raise IndexError(f"day_index {r.day_index} outside calendar of {days} days")
        mat = matrices.get(r.dealer_id)
        if mat is None:
            mat = matrices[r.dealer_id] = np.zeros((days, 2 * v), dtype=np.uint8)
        col = vocab.index[r.bond_id] + (0 if r.side == BUY else v)
        mat[r.day_index, col] = 1
    return [DealerHistory(d, matrices[d]) for d in sorted(matrices)]


def windowize(
    history: DealerHistory, t_in: int, t_out: int, stride: int = 1
) -> list[Sample]:
    """Slide an input/output window over one history.

    Returns floor((D - t_in - t_out) / stride) + 1 samples when that span
    is nonnegative, else an empty list.  Each sample's days are read-only
    views of the history's ``day_vectors``, not copies.
    """
    if t_in < 1 or t_out < 1 or stride < 1:
        raise ContractError("windowize needs t_in, t_out, stride >= 1")
    block = history.day_vectors.view()
    block.flags.writeable = False
    return [
        Sample(
            dealer_id=history.dealer_id,
            start_day=start,
            input_days=block[start:start + t_in],
            target_days=block[start + t_in:start + t_in + t_out],
        )
        for start in range(0, block.shape[0] - t_in - t_out + 1, stride)
    ]


def split_boundary(days: int, train_fraction: float) -> int:
    if not 0.0 < train_fraction < 1.0:
        raise ContractError(f"train_fraction {train_fraction} outside (0, 1)")
    return int(math.floor(train_fraction * days))


def split_train_test(
    samples: list[Sample], days: int, train_fraction: float
) -> tuple[list[Sample], list[Sample]]:
    """Temporal split at floor(train_fraction * days).

    A sample is train iff its whole window ends at or before the boundary,
    test iff it starts at or after it; windows straddling the boundary are
    discarded so no day is shared between the partitions.
    """
    boundary = split_boundary(days, train_fraction)
    train, test = [], []
    for s in samples:
        window = s.input_days.shape[0] + s.target_days.shape[0]
        if s.start_day + window <= boundary:
            train.append(s)
        elif s.start_day >= boundary:
            test.append(s)
    return train, test


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Yield ``<path>.tmp`` opened, moved over ``path`` after the block or removed if it raises."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        tmp.replace(path)
    finally:  # a no-op once the file is moved
        tmp.unlink(missing_ok=True)


def write_rows(path, rows) -> None:
    """Write ``rows`` through :func:`atomic_write` as a UTF-8 CSV table in the
    csv module's default dialect: comma separated, ``\\r\\n`` line ends, minimal
    quoting, None as an empty field.  Every CSV artifact is written here."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def save_records(path, records: list[TradeRecord]) -> None:
    """CSV, one record per line, its fields in :class:`TradeRecord`'s order."""
    write_rows(path, records)


def _pack_bits(matrix: np.ndarray) -> bytes:
    return np.packbits(matrix.astype(np.uint8).reshape(-1)).tobytes()


def _unpack_bits(blob: bytes, shape: tuple[int, int]) -> np.ndarray:
    n = shape[0] * shape[1]
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=n)
    return bits.reshape(shape)


def save_histories(path, histories: list[DealerHistory], days: int, vocab_size: int) -> str:
    """Write ``histories`` through ``atomic_write``; return the SHA-256 of the bytes written: a
    16-byte header (magic, version, D, V), then per dealer a length-prefixed UTF-8 id and the
    packed D x 2V bitmap.  No dealer, day or bond, an empty, repeated or non-UTF-8 id, or one
    longer than 65,535 UTF-8 bytes raises ContractError, and a history of the wrong shape
    ShapeMismatchError, before any file is opened."""
    if min(len(histories), days, vocab_size) < 1:
        raise ContractError(f"{len(histories)} dealers, {days} days and {vocab_size} bonds: "
                            "a histories file needs at least one of each")
    first_index: dict[str, int] = {}
    idents = []
    for i, h in enumerate(histories):
        if not h.dealer_id:
            raise ContractError(f"dealer {i} has an empty id")
        if first_index.setdefault(h.dealer_id, i) != i:
            raise ContractError(f"dealer {i} repeats the id {h.dealer_id!r} "
                                f"of dealer {first_index[h.dealer_id]}")
        if h.day_vectors.shape != (days, 2 * vocab_size):
            raise ShapeMismatchError(
                f"history {h.dealer_id!r}: shape {h.day_vectors.shape} != {(days, 2 * vocab_size)}"
            )
        try:
            idents.append(h.dealer_id.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise ContractError(f"dealer {i}: id {h.dealer_id!r} has no UTF-8 encoding") from exc
        if len(idents[-1]) > 0xFFFF:
            raise ContractError(f"dealer {i}: id takes {len(idents[-1])} UTF-8 bytes, "
                                "more than the 65,535 a length prefix holds")
    blob = b"".join([_HEADER.pack(_MAGIC, _FORMAT_VERSION, days, vocab_size),
                     struct.pack("<I", len(histories)),
                     *(struct.pack("<H", len(ident)) + ident + _pack_bits(h.day_vectors)
                       for h, ident in zip(histories, idents))])
    with atomic_write(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def load_histories(path) -> tuple[list[DealerHistory], int, int, str]:
    """Read a histories.bin file written by :func:`save_histories`: its
    histories, days, vocabulary size and the SHA-256 of the bytes parsed.

    Raises ArtifactError unless the header, every length prefix, id and
    bitmap are complete, the file holds at least one dealer, day and bond,
    no dealer id is empty or repeats, and no byte follows the last dealer.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    at = 0

    def take(size: int, what: str) -> bytes:
        nonlocal at
        if at + size > len(blob):
            raise ArtifactError(f"{path}: truncated at byte {len(blob)} while reading {what}")
        at += size
        return blob[at - size:at]

    magic, version, days, vocab_size = _HEADER.unpack(take(_HEADER.size, "the header"))
    if magic != _MAGIC:
        raise ArtifactError(f"{path}: bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ArtifactError(f"{path}: unsupported version {version}")
    (count,) = struct.unpack("<I", take(4, "the dealer count"))
    if min(count, days, vocab_size) < 1:
        raise ArtifactError(f"{path}: {count} dealers, {days} days and {vocab_size} bonds: "
                            "a histories file needs at least one of each")
    bitmap_bytes = (days * 2 * vocab_size + 7) // 8
    histories = []
    first_index: dict[str, int] = {}
    for i in range(count):
        (id_len,) = struct.unpack("<H", take(2, f"the id length of dealer {i}"))
        try:
            dealer_id = take(id_len, f"the id of dealer {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArtifactError(f"{path}: dealer {i} id is not UTF-8") from exc
        if not dealer_id:
            raise ArtifactError(f"{path}: dealer {i} has an empty id")
        if dealer_id in first_index:
            raise ArtifactError(f"{path}: dealer {i} repeats the id {dealer_id!r} "
                                f"of dealer {first_index[dealer_id]}")
        first_index[dealer_id] = i
        matrix = _unpack_bits(take(bitmap_bytes, f"the bitmap of dealer {dealer_id}"),
                              (days, 2 * vocab_size))
        histories.append(DealerHistory(dealer_id, matrix))
    if at != len(blob):
        raise ArtifactError(f"{path}: {len(blob) - at} trailing bytes after {count} dealers")
    return histories, days, vocab_size, hashlib.sha256(blob).hexdigest()
