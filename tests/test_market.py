"""Generator, cleaning, history, windowing, split, and file-format tests."""

import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otcforecast import market
from otcforecast.errors import ArtifactError, ContractError, ShapeMismatchError
from otcforecast.market import (
    BUY,
    SELL,
    STATUS_CANCEL,
    MarketSpec,
    TradeRecord,
    _dealer_ids,
    apply_trade_filters,
    build_histories,
    build_vocabulary,
    generate_synthetic_market,
    load_histories,
    save_histories,
    split_boundary,
    split_train_test,
    windowize,
)
from otcforecast.seeding import rng_for

from helpers import interrupted_writes


def one_periodic_spec(**overrides):
    base = dict(
        days=50, bonds=1, periodic_dealers=1, sparse_dealers=0, dense_dealers=0,
        periodic_period_range=(5, 5), periodic_bonds_range=(1, 1),
        periodic_buy_prob=1.0, cancellation_rate=0.0, seed=0,
    )
    base.update(overrides)
    return MarketSpec(**base)


class TestGenerator:
    def test_zero_dealers_empty_market(self):
        spec = MarketSpec(days=10, bonds=5, periodic_dealers=0,
                          sparse_dealers=0, dense_dealers=0)
        assert generate_synthetic_market(spec) == []

    def test_single_periodic_dealer_counting_oracle(self):
        records = generate_synthetic_market(one_periodic_spec())
        assert len(records) == 10
        assert [r.day_index for r in records] == list(range(0, 50, 5))
        assert all(r.status == "N" for r in records)
        assert all(r.side == "B" for r in records)
        assert len({r.bond_id for r in records}) == 1

    def test_determinism_under_seed(self):
        spec = MarketSpec(days=40, bonds=30, periodic_dealers=4, sparse_dealers=4,
                          dense_dealers=2, dense_rate=2.0, dense_bonds_range=(5, 10),
                          cancellation_rate=0.1, seed=21)
        assert generate_synthetic_market(spec) == generate_synthetic_market(spec)
        other = MarketSpec(**{**spec.__dict__, "seed": 22})
        assert generate_synthetic_market(other) != generate_synthetic_market(spec)

    def test_cancellations_reference_prior_records(self):
        spec = one_periodic_spec(cancellation_rate=1.0)
        records = generate_synthetic_market(spec)
        cancels = [(i, r) for i, r in enumerate(records) if r.status == "X"]
        assert len(cancels) == 10
        for i, r in cancels:
            assert r.ref_record is not None and r.ref_record < i
            target = records[r.ref_record]
            assert target.status == "N"
            assert (target.dealer_id, target.bond_id) == (r.dealer_id, r.bond_id)
            assert r.ref_record == i - 1
            assert r._replace(status="N", ref_record=None) == target

    def test_desk_scale_archetype_counting_oracle(self):
        spec = MarketSpec(
            days=60, bonds=50, periodic_dealers=10, sparse_dealers=10,
            dense_dealers=5, periodic_period_range=(2, 7),
            periodic_bonds_range=(2, 6), sparse_rate=0.1, dense_rate=4.0,
            dense_bonds_range=(10, 30), cancellation_rate=0.0, seed=3,
        )
        records = generate_synthetic_market(spec)
        by_dealer = {}
        for r in records:
            by_dealer.setdefault(r.dealer_id, []).append(r)
        # periodic dealers trade their whole bond set on a fixed-period grid
        for i in range(10):
            recs = by_dealer[f"D{i:04d}"]
            days = sorted({r.day_index for r in recs})
            gaps = {b - a for a, b in zip(days, days[1:])}
            assert len(gaps) == 1
            period = gaps.pop()
            assert 2 <= period <= 7
            bonds = {r.bond_id for r in recs}
            assert 2 <= len(bonds) <= 6
            assert len(recs) == math.ceil(60 / period) * len(bonds)
            # fixed per-bond side: no bond appears with both sides
            per_bond = {}
            for r in recs:
                per_bond.setdefault(r.bond_id, set()).add(r.side)
            assert all(len(sides) == 1 for sides in per_bond.values())
        # sparse dealers emit at most one record per day
        for i in range(10, 20):
            recs = by_dealer.get(f"D{i:04d}", [])
            assert len(recs) <= 60
            per_day = {}
            for r in recs:
                per_day[r.day_index] = per_day.get(r.day_index, 0) + 1
            assert all(v == 1 for v in per_day.values())
        # dense dealers stay within a generous Poisson envelope
        for i in range(20, 25):
            recs = by_dealer[f"D{i:04d}"]
            assert 60 * 4.0 * 0.5 < len(recs) < 60 * 4.0 * 1.5

    @pytest.mark.parametrize("field, bounds, floor", [
        ("periodic_period_range", (0, 0), 1),
        ("periodic_period_range", (5, 2), 1),
        ("periodic_bonds_range", (4, 3), 0),
        ("dense_bonds_range", (9, 1), 0),
        ("dense_bonds_range", (-1, 2), 0),
    ])
    def test_invalid_ranges_rejected(self, field, bounds, floor):
        message = f"{field} {bounds} needs {floor} <= minimum <= maximum"
        with pytest.raises(ContractError, match=re.escape(message)):
            one_periodic_spec(**{field: bounds})

    @pytest.mark.parametrize("overrides, message", [
        ({"days": 0}, "days 0 must be >= 1"),
        ({"bonds": -1}, "bonds -1 must be >= 0"),
        ({"sparse_dealers": -1}, "sparse_dealers -1 must be >= 0"),
        ({"periodic_buy_prob": 1.5}, "periodic_buy_prob 1.5 outside [0, 1]"),
        ({"sparse_rate": -0.1}, "sparse_rate -0.1 outside [0, 1]"),
        ({"cancellation_rate": 2.0}, "cancellation_rate 2.0 outside [0, 1]"),
        ({"dense_rate": -1.0}, "dense_rate -1.0 must be nonnegative"),
        ({"dense_rate": 1e19}, "dense_rate 1e+19 must be nonnegative and at most numpy's Poisson"),
    ])
    def test_invalid_sizes_and_rates_rejected(self, overrides, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            one_periodic_spec(**overrides)


class TestDeskScaleDefaults:
    def test_archetype_counts_within_declared_bounds(self):
        # default spec: 80 periodic + 80 sparse + 40 dense dealers, 500 bonds,
        # 249 days; counting oracle derived from the archetype parameters
        spec = MarketSpec()
        records = [r for r in generate_synthetic_market(spec) if r.status == "N"]
        counts = {"periodic": 0, "sparse": 0, "dense": 0}
        for r in records:
            idx = int(r.dealer_id[1:])
            kind = "periodic" if idx < 80 else ("sparse" if idx < 160 else "dense")
            counts[kind] += 1
        # periodic: per dealer ceil(249/p) * bonds with p in [2,7], bonds in [2,6]
        assert 80 * math.ceil(249 / 7) * 2 <= counts["periodic"] <= 80 * math.ceil(249 / 2) * 6
        # sparse: Binomial(249, 0.1) per dealer, envelope around 80 * 24.9
        assert 1700 <= counts["sparse"] <= 2300
        # dense: Poisson(8) per day, envelope around 40 * 249 * 8
        assert 76000 <= counts["dense"] <= 83500
        filtered, dealers, bonds = apply_trade_filters(records, 200, 500)
        assert len(dealers) == 200
        assert len(bonds) == 500


class TestFilters:
    def test_cancellation_removes_both(self):
        records = [
            TradeRecord(0, "D1", "B1", "B", "C"),
            TradeRecord(1, "D1", "B1", "B", "C", "X", 0),
        ]
        out, dealers, bonds = apply_trade_filters(records, 10, 10)
        assert out == []

    @pytest.mark.parametrize(
        "status, ref",
        [("R", 0), ("X", None), ("X", 1), ("X", 2), ("X", 3), ("X", 99), ("X", -1)],
        ids=["correction", "none", "own", "later", "end", "far", "negative"],
    )
    def test_only_a_cancellation_of_an_earlier_record_accepted(self, status, ref):
        records = [
            TradeRecord(0, "D1", "B1", "B", "C"),
            TradeRecord(1, "D1", "B1", "B", "C", status, ref),
            TradeRecord(2, "D1", "B1", "B", "C"),
        ]
        with pytest.raises(ContractError, match=f"record 1: status '{status}', ref_record {ref!r}:"):
            apply_trade_filters(records, 10, 10)

    @pytest.mark.parametrize("counts, top, kept", [
        ({"D1": 5, "D2": 3, "D3": 1}, 2, {"D1", "D2"}),
        ({"D0": 1, "D1": 1, "D2": 1}, 10, {"D0", "D1", "D2"}),  # fewer dealers than the top
        ({"D2": 1, "D1": 1}, 1, {"D1"}),  # ties break by ascending id
    ], ids=["ranking", "threshold_above_population", "ties"])
    def test_top_dealers_by_record_count(self, counts, top, kept):
        records = [TradeRecord(i, dealer, "B1", "B", "C")
                   for dealer, count in counts.items() for i in range(count)]
        out, dealers, _ = apply_trade_filters(records, top, 10)
        assert dealers == kept and {r.dealer_id for r in out} == kept

    def test_drop_top_bonds_inverts_selection(self):
        records = [TradeRecord(i, "D1", "B1", "B", "C") for i in range(3)]
        records += [TradeRecord(i, "D1", "B2", "B", "C") for i in range(1)]
        _, _, bonds = apply_trade_filters(records, 10, 1, drop_top_bonds=True)
        assert bonds == {"B2"}

    def test_idempotence(self):
        spec = MarketSpec(days=30, bonds=20, periodic_dealers=5, sparse_dealers=5,
                          dense_dealers=2, dense_rate=3.0, dense_bonds_range=(5, 10),
                          cancellation_rate=0.2, seed=9)
        records = generate_synthetic_market(spec)
        once = apply_trade_filters(records, 4, 8)
        twice = apply_trade_filters(once[0], 4, 8)
        assert once[0] == twice[0]


class TestVocabulary:
    @pytest.mark.parametrize("bonds, index", [
        ((), {}), (("B9", "B2"), {"B2": 0, "B9": 1}), (("B1",) * 5, {"B1": 0}),
    ], ids=["empty", "ascending_order", "duplicates_collapse"])
    def test_bonds_indexed_in_ascending_order(self, bonds, index):
        vocab = build_vocabulary([TradeRecord(i, "D1", b, "BS"[i % 2], "C")
                                  for i, b in enumerate(bonds)])
        assert vocab.index == index and vocab.size == len(index)


class TestHistories:
    # a buy sets (day, bond), a sell (day, V + bond), in a 10-bond vocabulary
    @pytest.mark.parametrize("trades, cells", [
        ([(7, "B3", "B")], [(7, 3)]), ([(2, "B1", "B"), (2, "B1", "S")], [(2, 1), (2, 11)]),
    ], ids=["buy", "buy_and_sell_same_day"])
    def test_each_trade_sets_its_cell(self, trades, cells):
        vocab = build_vocabulary([TradeRecord(0, "D1", f"B{i}", "B", "C") for i in range(10)])
        hist = build_histories([TradeRecord(d, "D1", b, s, "C") for d, b, s in trades], vocab, 10)
        expected = np.zeros((10, 20), np.uint8)
        expected[tuple(zip(*cells))] = 1
        np.testing.assert_array_equal(hist[0].day_vectors, expected)

    @pytest.mark.parametrize("day, bond, message", [
        (0, "B9", "B9"), (-1, "B1", "day_index -1 outside calendar of 5 days"),
        (5, "B1", "day_index 5 outside calendar of 5 days"),
    ], ids=["unknown_bond", "day_before", "day_after"])
    def test_a_record_outside_the_grid_raises(self, day, bond, message):
        vocab = build_vocabulary([TradeRecord(0, "D1", "B1", "B", "C")])
        with pytest.raises(IndexError, match=message):
            build_histories([TradeRecord(day, "D1", bond, "B", "C")], vocab, 5)

    def test_cell_sum_equals_distinct_tuples(self):
        spec = MarketSpec(days=25, bonds=15, periodic_dealers=3, sparse_dealers=3,
                          dense_dealers=2, dense_rate=3.0, dense_bonds_range=(4, 10),
                          cancellation_rate=0.0, seed=5)
        records = generate_synthetic_market(spec)
        vocab = build_vocabulary(records)
        histories = build_histories(records, vocab, spec.days)
        tuples = {(r.dealer_id, r.day_index, r.bond_id, r.side) for r in records}
        total = sum(int(h.day_vectors.sum()) for h in histories)
        assert total == len(tuples)


def toy_history(days=20, width=6, seed=0):
    rng = np.random.default_rng(seed)
    return market.DealerHistory("D1", (rng.random((days, width)) < 0.3).astype(np.uint8))


class TestWindowing:
    @pytest.mark.parametrize("days, stride, starts", [
        (20, 1, list(range(11))), (10, 1, [0]), (8, 1, []), (20, 3, [0, 3, 6, 9]),
    ], ids=["count", "boundary", "infeasible", "stride"])
    def test_window_starts(self, days, stride, starts):
        assert [s.start_day for s in windowize(toy_history(days), 5, 5, stride)] == starts

    def test_invalid_args(self):
        with pytest.raises(ContractError):
            windowize(toy_history(), 0, 5)

    def test_windows_are_read_only_views_of_their_days(self):
        hist = toy_history(18, seed=3)
        for s in windowize(hist, 4, 3):
            np.testing.assert_array_equal(
                s.input_days, hist.day_vectors[s.start_day:s.start_day + 4])
            np.testing.assert_array_equal(
                s.target_days, hist.day_vectors[s.start_day + 4:s.start_day + 7])
            for days in (s.input_days, s.target_days):
                assert np.shares_memory(days, hist.day_vectors)
                with pytest.raises(ValueError, match="read-only"):
                    days[0, 0] = 1
        assert hist.day_vectors.flags.writeable


class TestSplit:
    def test_disjoint_and_leak_free(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            days = int(rng.integers(20, 60))
            hist = toy_history(days, seed=trial)
            t_in = int(rng.integers(2, 6))
            t_out = int(rng.integers(1, 5))
            samples = windowize(hist, t_in, t_out)
            fraction = (0.05, 0.7)[trial % 2]  # at 0.05 no window ends by the boundary
            train, test = split_train_test(samples, days, fraction)
            boundary = split_boundary(days, fraction)
            ids = lambda part: {(s.dealer_id, s.start_day) for s in part}
            # train: every window that ends by the boundary; test: every one that starts there
            assert ids(train) == ids(s for s in samples if s.start_day + t_in + t_out <= boundary)
            assert ids(test) == ids(s for s in samples if s.start_day >= boundary)

    def test_invalid_fraction(self):
        with pytest.raises(ContractError):
            split_train_test([], 10, 1.0)


# (dealers, days, V) of a histories file that holds no dealer, day or bond
EMPTY_SIZES = [
    pytest.param(0, 6, 2, id="no-dealers"),
    pytest.param(1, 0, 2, id="no-days"),
    pytest.param(1, 6, 0, id="no-bonds"),
]


def splice_dealers(path, *ids):
    """Write a histories file of 3 days, 2 bonds and one empty dealer per raw
    id by hand, since the writer refuses an empty or non-UTF-8 id: 3 x 4
    bits take 2 bytes."""
    records = b"".join(struct.pack("<H", len(ident)) + ident + bytes(2) for ident in ids)
    path.write_bytes(struct.pack("<4sIII", b"OTCF", 1, 3, 2) + struct.pack("<I", len(ids))
                     + records)


class TestFileFormats:
    def small_histories_file(self, tmp_path):
        spec = MarketSpec(days=6, bonds=3, periodic_dealers=2, sparse_dealers=1,
                          dense_dealers=0, cancellation_rate=0.0, seed=15)
        records = generate_synthetic_market(spec)
        vocab = build_vocabulary(records)
        path = tmp_path / "hist.bin"
        save_histories(path, build_histories(records, vocab, spec.days), spec.days, vocab.size)
        return path, path.read_bytes()

    def test_histories_truncated_at_every_offset_rejected(self, tmp_path):
        path, blob = self.small_histories_file(tmp_path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ArtifactError, match="truncated"):
                load_histories(path)

    def test_histories_repeated_dealer_rejected(self, tmp_path):
        # at individual granularity the two dealers' windows would merge
        # into one unit
        hist = market.DealerHistory("D0000", np.zeros((3, 4), dtype=np.uint8))
        path = tmp_path / "hist.bin"
        save_histories(path, [hist], 3, 2)
        # the writer refuses a repeat, so the second record is spliced in:
        # 16-byte header, u32 dealer count, then the dealer's record
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + struct.pack("<I", 2) + 2 * blob[20:])
        with pytest.raises(ArtifactError, match="dealer 1 repeats the id 'D0000' of dealer 0"):
            load_histories(path)

    @pytest.mark.parametrize("dealer_id, error, message", [
        ("D" * 70_000, ContractError, "70000 UTF-8 bytes"),
        ("D\ud800", ContractError, "no UTF-8 encoding"),
        (None, ShapeMismatchError, r"shape \(2, 4\) != \(3, 4\)"),
        ("D0", ContractError, "dealer 1 repeats the id 'D0' of dealer 0"),
        ("", ContractError, "dealer 1 has an empty id"),
    ], ids=["long_id", "lone_surrogate", "wrong_shape", "repeated_id", "empty_id"])
    def test_save_histories_checks_every_dealer_before_opening(self, tmp_path, dealer_id,
                                                               error, message):
        # the faulty dealer comes last, after a valid one
        last = market.DealerHistory("D1" if dealer_id is None else dealer_id,
                                    np.zeros((2 if dealer_id is None else 3, 4), dtype=np.uint8))
        hists = [market.DealerHistory("D0", np.zeros((3, 4), dtype=np.uint8)), last]
        path = tmp_path / "hist.bin"
        path.write_bytes(b"kept")
        with pytest.raises(error, match=message):
            save_histories(path, hists, 3, 2)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("dealer_id", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_dealer_id_with_slash_or_nul_round_trips(self, tmp_path, dealer_id):
        # unit file names percent-encode the id, so any non-empty id will do
        hists = [market.DealerHistory(ident, np.eye(3, 4, dtype=np.uint8))
                 for ident in ("D0", dealer_id)]
        path = tmp_path / "hist.bin"
        save_histories(path, hists, 3, 2)
        loaded, _, _, _ = load_histories(path)
        assert [h.dealer_id for h in loaded] == ["D0", dealer_id]
        np.testing.assert_array_equal(loaded[1].day_vectors, hists[1].day_vectors)

    @pytest.mark.parametrize("ident, message", [
        (b"", "dealer 1 has an empty id"), (b"D\xff", "dealer 1 id is not UTF-8"),
    ], ids=["empty", "non_utf8"])
    def test_a_spliced_dealer_id_rejected(self, tmp_path, ident, message):
        path = tmp_path / "hist.bin"
        splice_dealers(path, b"D0", ident)
        with pytest.raises(ArtifactError, match=message):
            load_histories(path)

    @pytest.mark.parametrize("dealers, days, vocab_size", EMPTY_SIZES)
    def test_histories_without_dealer_day_or_bond_rejected(self, tmp_path, dealers, days,
                                                           vocab_size):
        # spliced by hand, because the writer refuses these files too
        bitmap = bytes((days * 2 * vocab_size + 7) // 8)
        path = tmp_path / "hist.bin"
        path.write_bytes(struct.pack("<4sIII", b"OTCF", 1, days, vocab_size)
                         + struct.pack("<I", dealers)
                         + dealers * (struct.pack("<H", 2) + b"D0" + bitmap))
        with pytest.raises(ArtifactError,
                           match=f"{dealers} dealers, {days} days and {vocab_size} bonds"):
            load_histories(path)

    @pytest.mark.parametrize("dealers, days, vocab_size", EMPTY_SIZES)
    def test_save_histories_refuses_an_empty_file_before_writing(self, tmp_path, dealers, days,
                                                                 vocab_size):
        hists = [market.DealerHistory("D0", np.zeros((days, 2 * vocab_size), dtype=np.uint8))
                 for _ in range(dealers)]
        path = tmp_path / "hist.bin"
        with pytest.raises(ContractError, match="needs at least one of each"):
            save_histories(path, hists, days, vocab_size)
        assert not path.exists()

    def test_histories_trailing_bytes_and_bad_header_rejected(self, tmp_path):
        path, blob = self.small_histories_file(tmp_path)
        for corrupt, reason in ((blob + b"\0", "trailing"), (b"XXXX" + blob[4:], "magic"),
                                (blob[:4] + b"\x09" + blob[5:], "version")):
            path.write_bytes(corrupt)
            with pytest.raises(ArtifactError, match=reason):
                load_histories(path)

    def test_readme_records_columns_are_the_record_fields(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        columns = re.search(r"^\* `records\.csv`: `([^`]*)`", readme, re.MULTILINE).group(1)
        parsed = [re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", column).groups()
                  for column in columns.split(",")]
        assert tuple(name for name, _ in parsed) == TradeRecord._fields
        statuses = {getattr(market, name) for name in dir(market) if name.startswith("STATUS_")}
        assert set(dict(parsed)["status"].split("|")) == statuses


INTERRUPTIONS = pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])


class TestInterruptedWrites:
    """A write cut midway leaves the file it would replace as it was, and no ``.tmp``."""

    @INTERRUPTIONS
    def test_write_rows(self, tmp_path, monkeypatch, exc):
        path = tmp_path / "table.csv"
        market.write_rows(path, [("a", "b"), (1, None)])
        with interrupted_writes(monkeypatch, path, exc), pytest.raises(exc):
            market.write_rows(path, [("c", "d")] * 100)

    @INTERRUPTIONS
    def test_save_histories(self, tmp_path, monkeypatch, exc):
        path = tmp_path / "hist.bin"
        save_histories(path, [market.DealerHistory("D0", np.zeros((3, 4), dtype=np.uint8))], 3, 2)
        hists = [market.DealerHistory("D1", np.ones((3, 4), dtype=np.uint8))]
        with interrupted_writes(monkeypatch, path, exc), pytest.raises(exc):
            save_histories(path, hists, 3, 2)

    def test_the_target_changes_only_when_the_block_ends(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old")
        with market.atomic_write(path, "w") as fh:
            fh.write("new")
            fh.flush()
            assert path.read_text() == "old"
            assert (tmp_path / "table.csv.tmp").read_text() == "new"
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_a_failed_move_removes_the_tmp(self, tmp_path):
        path = tmp_path / "table.csv"
        path.mkdir()  # os.replace cannot move a file over a directory
        with pytest.raises(OSError), market.atomic_write(path, "w") as fh:
            fh.write("new")
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"] and path.is_dir()


@st.composite
def histories_files(draw):
    """(histories, days, V) for a random valid histories.bin."""
    days = draw(st.integers(1, 6))
    vocab_size = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    bitmap = arrays(np.uint8, (days, 2 * vocab_size), elements=st.integers(0, 1))
    return [market.DealerHistory(ident, draw(bitmap)) for ident in ids], days, vocab_size


# a function-scoped tmp_path is safe here: every example rewrites the same file
PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestHistoriesProperties:
    @PROPERTY
    @given(histories_files())
    def test_round_trip(self, tmp_path, drawn):
        histories, days, vocab_size = drawn
        path = tmp_path / "hist.bin"
        written = save_histories(path, histories, days, vocab_size)
        loaded, loaded_days, loaded_v, digest = load_histories(path)
        assert (loaded_days, loaded_v) == (days, vocab_size)
        assert written == digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_bytes()[:4] == b"OTCF"
        assert [h.dealer_id for h in loaded] == [h.dealer_id for h in histories]
        for a, b in zip(loaded, histories):
            assert a.day_vectors.dtype == np.uint8
            np.testing.assert_array_equal(a.day_vectors, b.day_vectors)

    @PROPERTY
    @given(histories_files(), st.data())
    def test_truncation_at_any_offset_rejected(self, tmp_path, drawn, data):
        histories, days, vocab_size = drawn
        path = tmp_path / "hist.bin"
        save_histories(path, histories, days, vocab_size)
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="offset")])
        with pytest.raises(ArtifactError, match="truncated"):
            load_histories(path)


@st.composite
def records_with_cancellations(draw):
    """Normal records, each cancellation naming an earlier normal one."""
    records, normal = [], []
    for _ in range(draw(st.integers(0, 24))):
        if normal and draw(st.booleans()):
            ref = draw(st.sampled_from(normal))
            records.append(records[ref]._replace(status="X", ref_record=ref))
        else:
            normal.append(len(records))
            records.append(TradeRecord(draw(st.integers(0, 9)), draw(st.sampled_from(["D1", "D2"])),
                                       draw(st.sampled_from(["B1", "B2"])),
                                       draw(st.sampled_from("BS")), draw(st.sampled_from("DC"))))
    return records


def kept_by_brute_force(records):
    """Every normal record that no cancellation names, in order."""
    kept = []
    for i, record in enumerate(records):
        if record.status == "N" and all(other.ref_record != i for other in records):
            kept.append(record)
    return kept


class TestCleaningProperties:
    @PROPERTY
    @given(records_with_cancellations())
    def test_cleaning_is_the_brute_force_loop(self, records):
        out, _, _ = apply_trade_filters(records, len(records), len(records))
        assert out == kept_by_brute_force(records)


# The generator as it was when each archetype built its own records and drew
# their counterparties, kept verbatim as the reference the generator must match.
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


def reference_market(spec):
    out = []
    for dealer_id, kind in _dealer_ids(spec):
        rng = rng_for(spec.seed, "dealer", dealer_id)
        for record in _ARCHETYPES[kind](spec, dealer_id, rng):
            position = len(out)
            out.append(record)
            if spec.cancellation_rate > 0 and rng.random() < spec.cancellation_rate:
                out.append(record._replace(status=STATUS_CANCEL, ref_record=position))
    return out


def records_or_error(generate, spec):
    try:
        return generate(spec)
    except Exception as exc:
        return type(exc)


@st.composite
def small_market_specs(draw):
    """Any small valid MarketSpec; every rate may be exactly 0 or 1."""
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    count = st.integers(0, 3)

    def span(floor):
        return st.lists(st.integers(floor, 14), min_size=2, max_size=2).map(sorted).map(tuple)

    return MarketSpec(
        days=draw(st.integers(1, 40)), bonds=draw(st.integers(0, 12)),
        periodic_dealers=draw(count), sparse_dealers=draw(count), dense_dealers=draw(count),
        periodic_period_range=draw(span(1)), periodic_bonds_range=draw(span(0)),
        periodic_buy_prob=draw(rate), sparse_rate=draw(rate),
        dense_rate=draw(st.just(0.0) | st.floats(0.0, 10.0)),
        dense_bonds_range=draw(span(0)), cancellation_rate=draw(rate), seed=draw(st.integers()),
    )


class TestGeneratorProperties:
    @PROPERTY
    @given(small_market_specs())
    def test_generator_is_the_reference_loop(self, spec):
        assert (records_or_error(generate_synthetic_market, spec)
                == records_or_error(reference_market, spec))


class TestPlanProperties:
    @PROPERTY
    @given(small_market_specs())
    def test_plans_are_what_the_generator_walked(self, spec):
        walked = {}
        for r in generate_synthetic_market(spec):
            if r.status == "N":
                walked.setdefault(r.dealer_id, []).append((r.day_index, r.bond_id, r.side))
        plans = market.dealer_plans(spec)
        assert [(p.dealer_id, p.archetype) for p in plans] == _dealer_ids(spec)
        for plan in plans:
            trades = walked.get(plan.dealer_id, [])
            if plan.archetype == "periodic":
                bonds = [b for b, _ in plan.basket]
                assert bonds == sorted(set(bonds))
                assert trades == [(day, _bond_id(b), side)
                                  for day in range(0, spec.days, plan.period)
                                  for b, side in plan.basket]
            elif plan.archetype == "dense":
                lo, hi = spec.dense_bonds_range
                width = int(rng_for(spec.seed, "dealer", plan.dealer_id).integers(lo, hi + 1))
                assert len(set(plan.universe)) == len(plan.universe) == min(width, spec.bonds)
                assert {bond for _, bond, _ in trades} <= set(map(_bond_id, plan.universe))
            else:
                assert plan == market.Plan(plan.dealer_id, "sparse")
