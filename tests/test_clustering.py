"""Feature computation, k-means determinism and optimality, tier ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otcforecast.clustering import (
    FEATURES,
    ClusterAssignment,
    compute_dealer_features,
    kmeans_cluster,
    order_clusters,
    save_assignment,
)
from otcforecast.errors import ContractError
from otcforecast.market import DealerHistory


def history_from_bits(dealer_id, bits):
    return DealerHistory(dealer_id, np.asarray(bits, dtype=np.uint8))


def named(vector):
    """A feature vector as {feature name: value}."""
    return dict(zip(FEATURES, vector.tolist(), strict=True))


def recount(bits, boundary):
    """The features of one bitmap, recounted cell by cell over days [0, boundary)."""
    v = bits.shape[1] // 2
    cells = [(day, col) for day in range(boundary) for col in range(2 * v) if bits[day, col]]
    trades = len(cells)
    if trades == 0:
        return dict.fromkeys(FEATURES, 0.0)
    active_days = len({day for day, _ in cells})
    return {
        "total_trades": trades,
        "distinct_bonds": len({col % v for _, col in cells}),
        "active_day_fraction": active_days / boundary,
        "buy_ratio": sum(col < v for _, col in cells) / trades,
        "mean_trades_per_active_day": trades / active_days,
    }


@st.composite
def bitmaps_and_boundary(draw):
    """(bitmaps of one calendar, the last all zero, and a boundary within it)."""
    days, vocab_size = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    bitmap = arrays(np.uint8, (days, 2 * vocab_size), elements=st.integers(0, 1))
    bitmaps = draw(st.lists(bitmap, min_size=1, max_size=4))
    return [*bitmaps, np.zeros((days, 2 * vocab_size), np.uint8)], draw(st.integers(0, days))


class TestDealerFeatures:
    @settings(max_examples=60, deadline=None)
    @given(bitmaps_and_boundary())
    def test_features_equal_a_cell_recount(self, drawn):
        bitmaps, boundary = drawn
        histories = [history_from_bits(f"D{i}", bits) for i, bits in enumerate(bitmaps)]
        for b in sorted({0, boundary}):
            feats = compute_dealer_features(histories, b)
            assert list(feats) == [h.dealer_id for h in histories]
            for h in histories:
                vector = feats[h.dealer_id]
                assert vector.dtype == np.float64 and vector.shape == (len(FEATURES),)
                assert named(vector) == recount(h.day_vectors, b)

    def test_all_zero_history_flagged(self):
        hist = history_from_bits("D1", np.zeros((10, 6)))
        feats = compute_dealer_features([hist], 10)
        assert feats["D1"].tolist() == [0.0] * len(FEATURES)

    def test_hand_count(self):
        # two bonds bought once each on one day of a 10-day interval
        mat = np.zeros((10, 6), dtype=np.uint8)  # V = 3
        mat[4, 0] = 1
        mat[4, 2] = 1
        feats = compute_dealer_features([history_from_bits("D1", mat)], 10)
        f = named(feats["D1"])
        assert f["total_trades"] == 2
        assert f["distinct_bonds"] == 2
        assert f["active_day_fraction"] == pytest.approx(0.1)
        assert f["mean_trades_per_active_day"] == pytest.approx(2.0)

    def test_buys_only_ratio_one(self):
        mat = np.zeros((5, 4), dtype=np.uint8)
        mat[0, 0] = 1
        mat[3, 1] = 1
        f = named(compute_dealer_features([history_from_bits("D1", mat)], 5)["D1"])
        assert f["buy_ratio"] == 1.0

    @pytest.mark.parametrize("boundary, message", [
        (-1, "boundary -1 must be nonnegative"),
        (6, "boundary 6 exceeds calendar of 5 days"),
    ])
    def test_boundary_outside_the_calendar_rejected(self, boundary, message):
        hist = history_from_bits("D1", np.zeros((5, 4)))
        with pytest.raises(ContractError, match=message):
            compute_dealer_features([hist], boundary)

    def test_features_ignore_days_past_boundary(self):
        mat = np.zeros((10, 4), dtype=np.uint8)
        mat[8, 0] = 1  # after the boundary
        f = named(compute_dealer_features([history_from_bits("D1", mat)], 5)["D1"])
        assert f["total_trades"] == 0

    def test_same_bond_buy_and_sell_counts_once_distinct(self):
        mat = np.zeros((4, 4), dtype=np.uint8)
        mat[0, 0] = 1
        mat[1, 2] = 1  # sell of bond 0
        f = named(compute_dealer_features([history_from_bits("D1", mat)], 4)["D1"])
        assert f["distinct_bonds"] == 1
        assert f["total_trades"] == 2


def synthetic_features(vectors):
    """Feature vectors of dealers D000, D001, ..., with the two counts truncated to integers."""
    return {f"D{i:03d}": np.array([int(vec[0]), int(vec[1]), *vec[2:]], dtype=np.float64)
            for i, vec in enumerate(vectors)}


def two_groups(n_per_group=10, seed=0):
    rng = np.random.default_rng(seed)
    low = np.array([20, 4, 0.2, 0.5, 2.0])
    high = np.array([800, 40, 0.9, 0.6, 12.0])
    vectors = [low + rng.normal(scale=[1, 0.2, 0.01, 0.01, 0.1]) for _ in range(n_per_group)]
    vectors += [high + rng.normal(scale=[5, 0.5, 0.01, 0.01, 0.2]) for _ in range(n_per_group)]
    return synthetic_features(vectors)


def brute_force_best_two_clusters(x):
    """Exhaustive minimal within-cluster sum of squares over all 2-partitions."""
    n = x.shape[0]
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n - 1)) & 1).astype(bool)
    membership = np.concatenate([np.zeros((len(masks), 1), dtype=bool), bits], axis=1)
    counts = membership.sum(axis=1).astype(float)
    valid = (counts > 0) & (counts < n)
    sums = membership.astype(float) @ x
    total_sum = x.sum(axis=0)
    total_sq = float((x * x).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (
            total_sq
            - (sums * sums).sum(axis=1) / counts
            - ((total_sum - sums) ** 2).sum(axis=1) / (n - counts)
        )
    sse[~valid] = np.inf
    best = int(np.argmin(sse))
    return membership[best], float(sse[best])


def z_normalize(x):
    mean, std = x.mean(axis=0), x.std(axis=0)
    z = np.zeros_like(x)
    ok = std > 0
    z[:, ok] = (x[:, ok] - mean[ok]) / std[ok]
    return z


class TestKMeans:
    def test_four_separated_points_become_singletons(self):
        feats = synthetic_features([
            [10, 1, 0.1, 0.5, 1.0],
            [200, 10, 0.4, 0.5, 4.0],
            [900, 40, 0.8, 0.5, 10.0],
            [3000, 90, 1.0, 0.5, 30.0],
        ])
        assignment = kmeans_cluster(feats, k=4, seed=1)
        assert sorted(assignment.labels.values()) == [0, 1, 2, 3]

    def test_identical_features_degenerate(self):
        feats = synthetic_features([[5, 2, 0.2, 0.5, 1.0]] * 8)
        assignment = kmeans_cluster(feats, k=4, seed=2)
        populated = {c for c in assignment.labels.values()}
        assert len(populated) == 1

    def test_two_tight_groups_match_bruteforce_optimum(self):
        feats = two_groups()
        assignment = kmeans_cluster(feats, k=2, seed=3)
        x = z_normalize(np.stack(list(feats.values())))
        best_membership, best_sse = brute_force_best_two_clusters(x)
        got = np.array([assignment.labels[d] for d in feats])
        same = np.array_equal(got.astype(bool), best_membership)
        flipped = np.array_equal(~got.astype(bool), best_membership)
        assert same or flipped
        # and the achieved WCSS matches the optimum
        assert assignment.wcss_history[-1] == pytest.approx(best_sse, rel=1e-9)

    def test_determinism(self):
        feats = two_groups(seed=4)
        a = kmeans_cluster(feats, k=3, seed=5)
        b = kmeans_cluster(feats, k=3, seed=5)
        assert a.labels == b.labels
        assert a.wcss_history == b.wcss_history

    def test_partition_covers_all_dealers(self):
        feats = two_groups(seed=6)
        assignment = kmeans_cluster(feats, k=4, seed=7)
        assert set(assignment.labels) == set(feats)
        assert all(0 <= c < 4 for c in assignment.labels.values())

    def test_wcss_nonincreasing(self):
        rng = np.random.default_rng(8)
        feats = synthetic_features(
            np.column_stack([
                rng.uniform(1, 1000, 40),
                rng.uniform(1, 50, 40),
                rng.uniform(0, 1, 40),
                rng.uniform(0, 1, 40),
                rng.uniform(1, 20, 40),
            ])
        )
        assignment = kmeans_cluster(feats, k=4, seed=9)
        hist = assignment.wcss_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_fewer_dealers_than_k(self):
        feats = two_groups(n_per_group=1, seed=10)  # 2 dealers
        assignment = kmeans_cluster(feats, k=4, seed=11)
        assert sorted(assignment.labels.values()) == [0, 1]
        assert assignment.wcss_history == ()

    def test_two_duplicate_groups_with_excess_k(self):
        # only two distinct feature points but k=3: the third centroid can
        # never hold members, repair is futile, and its label stays absent
        feats = synthetic_features(
            [[5, 2, 0.2, 0.5, 1.0]] * 5 + [[900, 40, 0.9, 0.5, 9.0]] * 5
        )
        assignment = kmeans_cluster(feats, k=3, seed=12)
        populated = set(assignment.labels.values())
        assert len(populated) == 2
        assert populated < {0, 1, 2}

    def test_no_silent_empty_clusters_across_seeds(self):
        # every input here has at least k distinct points, duplicates
        # included, and repair leaves none of the k labels empty
        rng = np.random.default_rng(13)
        for trial in range(30):
            n = int(rng.integers(4, 25))
            base = rng.uniform([1, 1, 0, 0, 1], [2000, 60, 1, 1, 30], size=(n, 5))
            if trial % 3 == 0 and n > 6:  # inject duplicates
                base[: n // 2] = base[0]
            feats = synthetic_features(base)
            assignment = kmeans_cluster(feats, k=4, seed=trial)
            assert set(assignment.labels) == set(feats)
            assert set(assignment.labels.values()) == {0, 1, 2, 3}

    def test_empty_features_rejected(self):
        with pytest.raises(ContractError):
            kmeans_cluster({}, k=4, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractError, match=f"k >= 1, got {k}"):
            kmeans_cluster(two_groups(), k=k, seed=0)


class TestOrderClusters:
    def test_already_ordered_unchanged(self):
        feats = synthetic_features([[5, 1, 0.1, 0.5, 1.0], [500, 20, 0.5, 0.5, 9.0]])
        assignment = ClusterAssignment({"D000": 0, "D001": 1})
        ordered = order_clusters(assignment, feats)
        assert ordered.labels == {"D000": 0, "D001": 1}

    def test_swap_when_means_inverted(self):
        feats = synthetic_features([[100, 9, 0.5, 0.5, 4.0], [5, 1, 0.1, 0.5, 1.0]])
        assignment = ClusterAssignment({"D000": 0, "D001": 1})
        ordered = order_clusters(assignment, feats)
        assert ordered.labels == {"D000": 1, "D001": 0}

    def test_tie_breaks_by_distinct_bonds_then_stable(self):
        feats = synthetic_features([
            [10, 9, 0.5, 0.5, 4.0],
            [10, 2, 0.1, 0.5, 1.0],
        ])
        ordered = order_clusters(ClusterAssignment({"D000": 0, "D001": 1}), feats)
        assert ordered.labels == {"D000": 1, "D001": 0}
        same = synthetic_features([[10, 5, 0.5, 0.5, 4.0], [10, 5, 0.1, 0.5, 1.0]])
        ordered = order_clusters(ClusterAssignment({"D000": 0, "D001": 1}), same)
        assert ordered.labels == {"D000": 0, "D001": 1}

    def test_populated_labels_renumbered_from_zero(self):
        feats = synthetic_features([[500, 20, 0.5, 0.5, 9.0], [5, 1, 0.1, 0.5, 1.0]])
        ordered = order_clusters(ClusterAssignment({"D000": 3, "D001": 1}), feats)
        assert ordered.labels == {"D000": 1, "D001": 0}

    def test_ordering_contract_on_random_data(self):
        rng = np.random.default_rng(12)
        feats = synthetic_features(
            np.column_stack([
                rng.uniform(1, 2000, 30),
                rng.uniform(1, 60, 30),
                rng.uniform(0, 1, 30),
                rng.uniform(0, 1, 30),
                rng.uniform(1, 30, 30),
            ])
        )
        ordered = order_clusters(kmeans_cluster(feats, k=4, seed=13), feats)
        means = {}
        for dealer, label in ordered.labels.items():
            means.setdefault(label, []).append(named(feats[dealer])["total_trades"])
        labels = sorted(means)
        averages = [np.mean(means[c]) for c in labels]
        assert all(b >= a for a, b in zip(averages, averages[1:]))


SOURCE = "0123456789abcdef" * 4  # a histories.bin SHA-256


class TestAssignmentIO:
    def test_round_trip(self, tmp_path):
        feats = two_groups(seed=14)
        assignment = order_clusters(kmeans_cluster(feats, k=2, seed=15), feats)
        path = tmp_path / "clusters.csv"
        save_assignment(path, assignment, SOURCE)
        rows = [("histories_sha256", SOURCE), *sorted(assignment.labels.items())]
        assert path.read_bytes() == "".join(f"{a},{b}\r\n" for a, b in rows).encode()
        assert set(assignment.labels.values()) == {0, 1}
