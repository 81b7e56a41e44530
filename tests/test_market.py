"""Generator, cleaning, history, windowing, split, and file-format tests."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otcforecast import market
from otcforecast.errors import ArtifactError, ContractError, ShapeMismatchError
from otcforecast.market import (
    MarketSpec,
    TradeRecord,
    apply_trade_filters,
    build_histories,
    build_vocabulary,
    generate_synthetic_market,
    load_histories,
    save_histories,
    save_records,
    split_boundary,
    split_train_test,
    windowize,
)


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
        ({"days": 0}, "needs days >= 1 and bonds >= 0"),
        ({"bonds": -1}, "needs days >= 1 and bonds >= 0"),
        ({"sparse_dealers": -1}, "archetype counts must be nonnegative"),
        ({"periodic_buy_prob": 1.5}, "rate 1.5 outside [0, 1]"),
        ({"sparse_rate": -0.1}, "rate -0.1 outside [0, 1]"),
        ({"cancellation_rate": 2.0}, "rate 2.0 outside [0, 1]"),
        ({"dense_rate": -1.0}, "dense_rate -1.0 must be nonnegative"),
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

    def test_correction_replaces_referent(self):
        records = [
            TradeRecord(0, "D1", "B1", "B", "C"),
            TradeRecord(2, "D1", "B1", "S", "D", "R", 0),
        ]
        out, _, _ = apply_trade_filters(records, 10, 10)
        assert len(out) == 1
        assert out[0].day_index == 2 and out[0].side == "S" and out[0].status == "N"

    def test_dangling_ref_warns_and_drops_flag_only(self):
        records = [
            TradeRecord(0, "D1", "B1", "B", "C"),
            TradeRecord(1, "D1", "B1", "B", "C", "X", 99),
        ]
        with pytest.warns(UserWarning, match="dangling"):
            out, _, _ = apply_trade_filters(records, 10, 10)
        assert len(out) == 1 and out[0].day_index == 0

    def test_dealer_ranking(self):
        records = []
        for dealer, count in (("D1", 5), ("D2", 3), ("D3", 1)):
            records += [TradeRecord(i, dealer, "B1", "B", "C") for i in range(count)]
        out, dealers, _ = apply_trade_filters(records, 2, 10)
        assert dealers == {"D1", "D2"}
        assert all(r.dealer_id != "D3" for r in out)

    def test_threshold_above_population_is_noop(self):
        records = [TradeRecord(0, f"D{i}", "B1", "B", "C") for i in range(3)]
        _, dealers, _ = apply_trade_filters(records, 10, 10)
        assert dealers == {"D0", "D1", "D2"}

    def test_rank_ties_break_by_ascending_id(self):
        records = [
            TradeRecord(0, "D2", "B1", "B", "C"),
            TradeRecord(0, "D1", "B1", "B", "C"),
        ]
        _, dealers, _ = apply_trade_filters(records, 1, 10)
        assert dealers == {"D1"}

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
    def test_empty(self):
        assert build_vocabulary([]).size == 0

    def test_ascending_bond_order(self):
        records = [
            TradeRecord(0, "D1", "B9", "B", "C"),
            TradeRecord(0, "D1", "B2", "S", "C"),
        ]
        vocab = build_vocabulary(records)
        assert vocab.index == {"B2": 0, "B9": 1}

    def test_duplicates_collapse(self):
        records = [TradeRecord(i, "D1", "B1", "B", "C") for i in range(5)]
        assert build_vocabulary(records).size == 1


class TestHistories:
    def test_buy_placement(self):
        records = [TradeRecord(0, "D1", f"B{i}", "B", "C") for i in range(10)]
        vocab = build_vocabulary(records)
        hist = build_histories([TradeRecord(7, "D1", "B3", "B", "C")], vocab, 10)
        mat = hist[0].day_vectors
        assert mat.sum() == 1
        assert mat[7, vocab.index["B3"]] == 1

    def test_buy_and_sell_same_day(self):
        base = [TradeRecord(0, "D1", f"B{i}", "B", "C") for i in range(4)]
        vocab = build_vocabulary(base)
        hist = build_histories(
            [TradeRecord(2, "D1", "B1", "B", "C"), TradeRecord(2, "D1", "B1", "S", "C")],
            vocab, 5,
        )
        mat = hist[0].day_vectors
        idx = vocab.index["B1"]
        assert mat[2, idx] == 1 and mat[2, 4 + idx] == 1
        assert mat.sum() == 2

    def test_unknown_bond_raises(self):
        vocab = build_vocabulary([TradeRecord(0, "D1", "B1", "B", "C")])
        with pytest.raises(IndexError, match="B9"):
            build_histories([TradeRecord(0, "D1", "B9", "B", "C")], vocab, 5)

    @pytest.mark.parametrize("day", [-1, 5])
    def test_day_outside_calendar_raises(self, day):
        vocab = build_vocabulary([TradeRecord(0, "D1", "B1", "B", "C")])
        with pytest.raises(IndexError, match=f"day_index {day} outside calendar of 5 days"):
            build_histories([TradeRecord(day, "D1", "B1", "B", "C")], vocab, 5)

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
    def test_count_formula(self):
        assert len(windowize(toy_history(20), 5, 5)) == 11

    def test_boundary_count(self):
        assert len(windowize(toy_history(10), 5, 5)) == 1

    def test_infeasible_window(self):
        assert windowize(toy_history(8), 5, 5) == []

    def test_stride(self):
        samples = windowize(toy_history(20), 5, 5, stride=3)
        assert [s.start_day for s in samples] == [0, 3, 6, 9]

    def test_round_trip_slices(self):
        hist = toy_history(18, seed=3)
        for s in windowize(hist, 4, 3):
            np.testing.assert_array_equal(
                s.input_days, hist.day_vectors[s.start_day:s.start_day + 4])
            np.testing.assert_array_equal(
                s.target_days, hist.day_vectors[s.start_day + 4:s.start_day + 7])

    def test_invalid_args(self):
        with pytest.raises(ContractError):
            windowize(toy_history(), 0, 5)

    def test_windows_are_read_only_views(self):
        hist = toy_history(18, seed=3)
        for s in windowize(hist, 4, 3, stride=2):
            for days in (s.input_days, s.target_days):
                assert np.shares_memory(days, hist.day_vectors)
                with pytest.raises(ValueError, match="read-only"):
                    days[0, 0] = 1
        assert hist.day_vectors.flags.writeable


class TestSplit:
    def test_boundary_value(self):
        assert split_boundary(249, 0.9) == 224

    def test_degenerate_fraction_empties_train(self):
        samples = windowize(toy_history(20), 5, 5)
        train, test = split_train_test(samples, 20, 0.05)
        assert train == []

    def test_disjoint_and_leak_free(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            days = int(rng.integers(20, 60))
            hist = toy_history(days, seed=trial)
            t_in = int(rng.integers(2, 6))
            t_out = int(rng.integers(1, 5))
            samples = windowize(hist, t_in, t_out)
            train, test = split_train_test(samples, days, 0.7)
            boundary = split_boundary(days, 0.7)
            ids = lambda part: {(s.dealer_id, s.start_day) for s in part}
            assert not (ids(train) & ids(test))
            if train:
                assert max(s.start_day + t_in + t_out for s in train) <= boundary
            if test:
                assert min(s.start_day for s in test) >= boundary

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
    def test_histories_round_trip(self, tmp_path):
        spec = MarketSpec(days=15, bonds=8, periodic_dealers=2, sparse_dealers=1,
                          dense_dealers=0, cancellation_rate=0.0, seed=14)
        records = generate_synthetic_market(spec)
        vocab = build_vocabulary(records)
        histories = build_histories(records, vocab, spec.days)
        path = tmp_path / "hist.bin"
        save_histories(path, histories, spec.days, vocab.size)
        loaded, days, v = load_histories(path)
        assert (days, v) == (spec.days, vocab.size)
        assert [h.dealer_id for h in loaded] == [h.dealer_id for h in histories]
        for a, b in zip(loaded, histories):
            np.testing.assert_array_equal(a.day_vectors, b.day_vectors)
        assert path.read_bytes()[:4] == b"OTCF"

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

    def test_save_histories_rejects_repeated_dealer_before_writing(self, tmp_path):
        hists = [market.DealerHistory(ident, np.zeros((3, 4), dtype=np.uint8))
                 for ident in ("D0", "D1", "D0")]
        path = tmp_path / "hist.bin"
        with pytest.raises(ContractError, match="dealer 2 repeats the id 'D0' of dealer 0"):
            save_histories(path, hists, 3, 2)
        assert not path.exists()

    @pytest.mark.parametrize("dealer_id, error, message", [
        ("D" * 70_000, ContractError, "70000 UTF-8 bytes"),
        ("D\ud800", ContractError, "no UTF-8 encoding"),
        (None, ShapeMismatchError, r"shape \(2, 4\) != \(3, 4\)"),
    ], ids=["long_id", "lone_surrogate", "wrong_shape"])
    def test_save_histories_checks_every_dealer_before_opening(self, tmp_path, dealer_id,
                                                               error, message):
        # the faulty dealer comes last, after a valid one
        last = market.DealerHistory(dealer_id or "D1",
                                    np.zeros((3 if dealer_id else 2, 4), dtype=np.uint8))
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
        loaded, _, _ = load_histories(path)
        assert [h.dealer_id for h in loaded] == ["D0", dealer_id]
        np.testing.assert_array_equal(loaded[1].day_vectors, hists[1].day_vectors)

    def test_empty_dealer_id_rejected(self, tmp_path):
        hists = [market.DealerHistory(ident, np.zeros((3, 4), dtype=np.uint8))
                 for ident in ("D0", "")]
        path = tmp_path / "hist.bin"
        with pytest.raises(ContractError, match="dealer 1 has an empty id"):
            save_histories(path, hists, 3, 2)
        assert not path.exists()
        splice_dealers(path, b"D0", b"")
        with pytest.raises(ArtifactError, match="dealer 1 has an empty id"):
            load_histories(path)

    def test_non_utf8_dealer_id_rejected(self, tmp_path):
        path = tmp_path / "hist.bin"
        splice_dealers(path, b"D0", b"D\xff")
        with pytest.raises(ArtifactError, match="dealer 1 id is not UTF-8"):
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

    def test_gen_byte_determinism(self, tmp_path):
        spec = one_periodic_spec(seed=7)
        for name in ("a.csv", "b.csv"):
            save_records(tmp_path / name, generate_synthetic_market(spec))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
        save_histories(path, histories, days, vocab_size)
        loaded, loaded_days, loaded_v = load_histories(path)
        assert (loaded_days, loaded_v) == (days, vocab_size)
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
