"""Synthetic OTC transaction records and their reduction to training samples.

The generator emits TRACE-shaped records for three dealer archetypes:
periodic dealers re-trade a fixed bond set every p days, sparse dealers
trade rarely and erratically, dense dealers trade heavily over a wide set.
Cleaning removes cancellations (and their referents) and applies
corrections, then keeps the most active dealers and bonds.  Histories are
daily multi-hot vectors of length 2V: buys in [0, V), sells in [V, 2V).
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArtifactError, ContractError, ShapeMismatchError
from .seeding import rng_for

BUY = "B"
SELL = "S"
STATUS_NORMAL = "N"
STATUS_CANCEL = "X"
STATUS_CORRECTION = "R"

_HEADER = struct.Struct("<4sIII")
_MAGIC = b"OTCF"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TradeRecord:
    """One reported transaction from the reporting dealer's perspective."""

    day_index: int
    dealer_id: str
    bond_id: str
    side: str  # B | S
    counterparty: str  # D (dealer) | C (client)
    status: str = STATUS_NORMAL  # N | X (cancellation) | R (correction)
    ref_record: int | None = None  # list position of the record X/R targets


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
        if self.days < 1 or self.bonds < 0:
            raise ContractError("MarketSpec needs days >= 1 and bonds >= 0")
        if min(self.periodic_dealers, self.sparse_dealers, self.dense_dealers) < 0:
            raise ContractError("archetype counts must be nonnegative")
        for rate in (self.periodic_buy_prob, self.sparse_rate, self.cancellation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ContractError(f"rate {rate} outside [0, 1]")
        if self.dense_rate < 0:
            raise ContractError(f"dense_rate {self.dense_rate} must be nonnegative")

    @property
    def total_dealers(self) -> int:
        return self.periodic_dealers + self.sparse_dealers + self.dense_dealers


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
    target_union: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.target_union is None:
            self.target_union = self.target_days.max(axis=0)


def _dealer_ids(spec: MarketSpec) -> list[tuple[str, str]]:
    kinds = (
        ["periodic"] * spec.periodic_dealers
        + ["sparse"] * spec.sparse_dealers
        + ["dense"] * spec.dense_dealers
    )
    return [(f"D{i:04d}", kind) for i, kind in enumerate(kinds)]


def _bond_id(i: int) -> str:
    return f"B{i:04d}"


def _periodic_trades(spec, dealer_id, rng):
    lo, hi = spec.periodic_period_range
    period = int(rng.integers(lo, hi + 1))
    blo, bhi = spec.periodic_bonds_range
    n_bonds = min(int(rng.integers(blo, bhi + 1)), spec.bonds)
    chosen = sorted(rng.choice(spec.bonds, size=n_bonds, replace=False).tolist())
    sides = {b: (BUY if rng.random() < spec.periodic_buy_prob else SELL) for b in chosen}
    for day in range(0, spec.days, period):
        for b in chosen:
            counterparty = "D" if rng.random() < 0.5 else "C"
            yield TradeRecord(day, dealer_id, _bond_id(b), sides[b], counterparty)


def _sparse_trades(spec, dealer_id, rng):
    for day in range(spec.days):
        if rng.random() < spec.sparse_rate and spec.bonds > 0:
            bond = int(rng.integers(spec.bonds))
            side = BUY if rng.random() < 0.5 else SELL
            counterparty = "D" if rng.random() < 0.5 else "C"
            yield TradeRecord(day, dealer_id, _bond_id(bond), side, counterparty)


def _dense_trades(spec, dealer_id, rng):
    lo, hi = spec.dense_bonds_range
    width = min(int(rng.integers(lo, hi + 1)), spec.bonds)
    if width == 0:
        return
    universe = rng.choice(spec.bonds, size=width, replace=False)
    for day in range(spec.days):
        for _ in range(int(rng.poisson(spec.dense_rate))):
            bond = int(universe[int(rng.integers(width))])
            side = BUY if rng.random() < 0.5 else SELL
            counterparty = "D" if rng.random() < 0.5 else "C"
            yield TradeRecord(day, dealer_id, _bond_id(bond), side, counterparty)


_ARCHETYPES = {
    "periodic": _periodic_trades,
    "sparse": _sparse_trades,
    "dense": _dense_trades,
}


def generate_synthetic_market(spec: MarketSpec) -> list[TradeRecord]:
    """Emit the full record list for a market spec, deterministic under seed.

    Records are ordered dealer-major, day-minor; a cancellation immediately
    follows the record it voids and references it by list position.
    """
    out: list[TradeRecord] = []
    for dealer_id, kind in _dealer_ids(spec):
        rng = rng_for(spec.seed, "dealer", dealer_id)
        for record in _ARCHETYPES[kind](spec, dealer_id, rng):
            position = len(out)
            out.append(record)
            if spec.cancellation_rate > 0 and rng.random() < spec.cancellation_rate:
                out.append(replace(record, status=STATUS_CANCEL, ref_record=position))
    return out


def _resolve_status(records: list[TradeRecord]) -> list[TradeRecord]:
    """Drop cancellations with their referents; let corrections replace theirs."""
    dropped: set[int] = set()
    for i, record in enumerate(records):
        if record.status == STATUS_NORMAL:
            continue
        ref = record.ref_record
        if ref is None or not 0 <= ref < len(records) or ref == i:
            warnings.warn(
                f"record {i}: dangling ref_record {ref!r}; dropping the flagged record",
                stacklevel=3,
            )
            dropped.add(i)
            continue
        dropped.add(ref)
        if record.status == STATUS_CANCEL:
            dropped.add(i)
    return [
        replace(r, status=STATUS_NORMAL, ref_record=None)
        for i, r in enumerate(records)
        if i not in dropped
    ]


def _top_keys(counts: dict[str, int], keep: int) -> set[str]:
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    return set(ranked[:keep])


def apply_trade_filters(
    records: list[TradeRecord],
    top_dealers: int,
    top_bonds: int,
    drop_top_bonds: bool = False,
) -> tuple[list[TradeRecord], set[str], set[str]]:
    """Clean status flags, then keep only the most active dealers and bonds.

    Ranking is by surviving record count, ties broken by ascending id.  With
    ``drop_top_bonds`` the ``top_bonds`` most active bonds are removed
    instead of retained (the inverted reading of bond filtering).
    """
    resolved = _resolve_status(records)

    dealer_counts: dict[str, int] = {}
    for r in resolved:
        dealer_counts[r.dealer_id] = dealer_counts.get(r.dealer_id, 0) + 1
    kept_dealers = _top_keys(dealer_counts, top_dealers)
    resolved = [r for r in resolved if r.dealer_id in kept_dealers]

    bond_counts: dict[str, int] = {}
    for r in resolved:
        bond_counts[r.bond_id] = bond_counts.get(r.bond_id, 0) + 1
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
    records: list[TradeRecord],
    vocab: Vocabulary,
    days: int,
    dealers: list[str] | None = None,
) -> list[DealerHistory]:
    """Collapse records into per-dealer daily multi-hot matrices.

    Multiplicity within a (dealer, day, bond, side) cell collapses to 1.
    Histories come back in ascending dealer id order.  ``dealers`` forces
    histories for specific dealers (all-zero when they have no records);
    by default only dealers present in the records appear.
    """
    v = vocab.size
    matrices: dict[str, np.ndarray] = {
        d: np.zeros((days, 2 * v), dtype=np.uint8) for d in (dealers or ())
    }
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

    Yields floor((D - t_in - t_out) / stride) + 1 samples when that span is
    nonnegative, else none.
    """
    if t_in < 1 or t_out < 1 or stride < 1:
        raise ContractError("windowize needs t_in, t_out, stride >= 1")
    days = history.day_vectors.shape[0]
    samples = []
    for start in range(0, days - t_in - t_out + 1, stride):
        block = history.day_vectors
        samples.append(
            Sample(
                dealer_id=history.dealer_id,
                start_day=start,
                input_days=block[start:start + t_in].copy(),
                target_days=block[start + t_in:start + t_in + t_out].copy(),
            )
        )
    return samples


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


def save_records(path, records: list[TradeRecord]) -> None:
    """CSV, one record per line: day, dealer, bond, side, counterparty, status, ref."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for r in records:
            writer.writerow(
                [
                    r.day_index,
                    r.dealer_id,
                    r.bond_id,
                    r.side,
                    r.counterparty,
                    r.status,
                    "" if r.ref_record is None else r.ref_record,
                ]
            )


def load_records(path) -> list[TradeRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            day, dealer, bond, side, counterparty, status, ref = row
            records.append(
                TradeRecord(
                    int(day), dealer, bond, side, counterparty, status,
                    int(ref) if ref else None,
                )
            )
    return records


def _pack_bits(matrix: np.ndarray) -> bytes:
    return np.packbits(matrix.astype(np.uint8).reshape(-1)).tobytes()


def _unpack_bits(blob: bytes, shape: tuple[int, int]) -> np.ndarray:
    n = shape[0] * shape[1]
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=n)
    return bits.reshape(shape).astype(np.uint8)


def save_histories(path, histories: list[DealerHistory], days: int, vocab_size: int) -> None:
    """Binary layout: 16-byte header (magic, version, D, V), then per dealer
    a length-prefixed id and the packed D x 2V bitmap."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, days, vocab_size))
        fh.write(struct.pack("<I", len(histories)))
        for h in histories:
            if h.day_vectors.shape != (days, 2 * vocab_size):
                raise ShapeMismatchError(
                    f"history {h.dealer_id}: shape {h.day_vectors.shape} != {(days, 2 * vocab_size)}"
                )
            ident = h.dealer_id.encode("utf-8")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(_pack_bits(h.day_vectors))


def load_histories(path) -> tuple[list[DealerHistory], int, int]:
    """Read a histories.bin file written by :func:`save_histories`.

    Raises ArtifactError unless the header, every length prefix, id and
    bitmap are complete and no byte follows the last dealer.
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
    bitmap_bytes = (days * 2 * vocab_size + 7) // 8
    histories = []
    for i in range(count):
        (id_len,) = struct.unpack("<H", take(2, f"the id length of dealer {i}"))
        try:
            dealer_id = take(id_len, f"the id of dealer {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArtifactError(f"{path}: dealer {i} id is not UTF-8") from exc
        matrix = _unpack_bits(take(bitmap_bytes, f"the bitmap of dealer {dealer_id}"),
                              (days, 2 * vocab_size))
        histories.append(DealerHistory(dealer_id, matrix))
    if at != len(blob):
        raise ArtifactError(f"{path}: {len(blob) - at} trailing bytes after {count} dealers")
    return histories, days, vocab_size


def write_histories_text(path, histories: list[DealerHistory], vocab_size: int) -> None:
    """Debug dump: one line per set bit, as dealer, day, side, bond index."""
    with open(path, "w") as fh:
        for h in histories:
            days, _ = h.day_vectors.shape
            for day in range(days):
                for col in np.flatnonzero(h.day_vectors[day]):
                    side = BUY if col < vocab_size else SELL
                    fh.write(f"{h.dealer_id},{day},{side},{col % vocab_size}\n")
